module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Vorder.compare_exn
end)

module IntSet = Set.Make (Int)

type t = {
  ktype : Vtype.t;
  mutable map : IntSet.t VMap.t;
}

let create ktype =
  if not (Vorder.orderable ktype) then
    Error
      (Printf.sprintf "btree index: type %s is not orderable"
         (Vtype.to_string ktype))
  else Ok { ktype; map = VMap.empty }

let check_key t key =
  let actual = Value.type_of key in
  (* ints may key float indexes: Vorder compares them numerically *)
  let compatible =
    Vtype.equal actual t.ktype
    || (Vtype.equal t.ktype Vtype.Float && Vtype.equal actual Vtype.Int)
  in
  if compatible then Ok ()
  else
    Error
      (Printf.sprintf "btree index: key of type %s for %s index"
         (Vtype.to_string actual) (Vtype.to_string t.ktype))

let add t key oid =
  match check_key t key with
  | Error _ as e -> e
  | Ok () ->
    t.map <-
      VMap.update key
        (function
          | None -> Some (IntSet.singleton oid)
          | Some s -> Some (IntSet.add oid s))
        t.map;
    Ok ()

let remove t key oid =
  t.map <-
    VMap.update key
      (function
        | None -> None
        | Some s ->
          let s = IntSet.remove oid s in
          if IntSet.is_empty s then None else Some s)
      t.map

let find t key =
  match VMap.find_opt key t.map with
  | None -> []
  | Some s -> IntSet.elements s

let range t ?lo ?hi () =
  let in_lo k =
    match lo with
    | None -> true
    | Some l -> Vorder.compare_exn k l >= 0
  in
  let in_hi k =
    match hi with
    | None -> true
    | Some h -> Vorder.compare_exn k h <= 0
  in
  VMap.fold
    (fun k s acc ->
      if in_lo k && in_hi k then List.rev_append (IntSet.elements s) acc
      else acc)
    t.map []
  |> List.rev

let min_key t = Option.map fst (VMap.min_binding_opt t.map)
let max_key t = Option.map fst (VMap.max_binding_opt t.map)
let cardinality t = VMap.cardinal t.map
