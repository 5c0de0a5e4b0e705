module Value = Gaea_adt.Value
module IntMap = Map.Make (Int)

type t = {
  name : string;
  desc : Tuple.descriptor;
  mutable rows : Tuple.t IntMap.t;
  mutable live : int;
  hash_indexes : (string, Index_hash.t) Hashtbl.t;
  btree_indexes : (string, Index_btree.t) Hashtbl.t;
  mutable used_index : bool;
}

let create ~name desc =
  { name;
    desc;
    rows = IntMap.empty;
    live = 0;
    hash_indexes = Hashtbl.create 4;
    btree_indexes = Hashtbl.create 4;
    used_index = false }

let name t = t.name
let descriptor t = t.desc
let row_count t = t.live

let attr_values t tuple attr =
  match Tuple.attr_index t.desc attr with
  | None -> None
  | Some i -> Some (Tuple.get tuple i)

let scan t f = IntMap.iter f t.rows
let fold t ~init ~f = IntMap.fold (fun oid tuple acc -> f acc oid tuple) t.rows init

let create_hash_index t attr =
  match Tuple.attr_index t.desc attr with
  | None -> Error (Printf.sprintf "%s: no attribute %s" t.name attr)
  | Some i ->
    if Hashtbl.mem t.hash_indexes attr then
      Error (Printf.sprintf "%s: hash index on %s exists" t.name attr)
    else begin
      let idx = Index_hash.create () in
      scan t (fun oid tuple -> Index_hash.add idx (Tuple.get tuple i) oid);
      Hashtbl.add t.hash_indexes attr idx;
      Ok ()
    end

let create_btree_index t attr =
  match Tuple.attr_index t.desc attr, Tuple.attr_type t.desc attr with
  | None, _ | _, None -> Error (Printf.sprintf "%s: no attribute %s" t.name attr)
  | Some i, Some ty ->
    if Hashtbl.mem t.btree_indexes attr then
      Error (Printf.sprintf "%s: btree index on %s exists" t.name attr)
    else begin
      match Index_btree.create ty with
      | Error _ as e -> e
      | Ok idx ->
        let err = ref None in
        scan t (fun oid tuple ->
            if !err = None then
              match Index_btree.add idx (Tuple.get tuple i) oid with
              | Ok () -> ()
              | Error e -> err := Some e);
        (match !err with
         | Some e -> Error e
         | None ->
           Hashtbl.add t.btree_indexes attr idx;
           Ok ())
    end

let has_hash_index t attr = Hashtbl.mem t.hash_indexes attr
let has_btree_index t attr = Hashtbl.mem t.btree_indexes attr

let index_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> Index_hash.add idx v oid
      | None -> ())
    t.hash_indexes;
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> ignore (Index_btree.add idx v oid)
      | None -> ())
    t.btree_indexes

let unindex_tuple t oid tuple =
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> Index_hash.remove idx v oid
      | None -> ())
    t.hash_indexes;
  Hashtbl.iter
    (fun attr idx ->
      match attr_values t tuple attr with
      | Some v -> Index_btree.remove idx v oid
      | None -> ())
    t.btree_indexes

let make_tuple t values =
  Result.map_error (fun e -> t.name ^ ": " ^ e) (Tuple.make t.desc values)

let insert t oid values =
  match make_tuple t values with
  | Error _ as e -> e
  | Ok tuple ->
    if IntMap.mem oid t.rows then
      Error (Printf.sprintf "%s: duplicate oid %d" t.name oid)
    else begin
      t.rows <- IntMap.add oid tuple t.rows;
      t.live <- t.live + 1;
      index_tuple t oid tuple;
      Ok ()
    end

let get t oid = IntMap.find_opt oid t.rows

let replace t oid values =
  match make_tuple t values with
  | Error _ as e -> e
  | Ok tuple ->
    (match get t oid with
     | None -> Error (Printf.sprintf "%s: replace of unknown oid %d" t.name oid)
     | Some old ->
       t.rows <- IntMap.add oid tuple t.rows;
       unindex_tuple t oid old;
       index_tuple t oid tuple;
       Ok ())

let delete t oid =
  match get t oid with
  | None -> false
  | Some tuple ->
    t.rows <- IntMap.remove oid t.rows;
    t.live <- t.live - 1;
    unindex_tuple t oid tuple;
    true

let get_attr t oid attr =
  match get t oid with
  | None -> None
  | Some tuple -> attr_values t tuple attr

let select t pred =
  List.rev
    (fold t ~init:[] ~f:(fun acc oid tuple ->
         if pred oid tuple then (oid, tuple) :: acc else acc))

let materialize t oids =
  List.filter_map
    (fun oid -> Option.map (fun tu -> (oid, tu)) (get t oid))
    oids

let lookup_eq t attr value =
  match Hashtbl.find_opt t.btree_indexes attr with
  | Some idx ->
    t.used_index <- true;
    materialize t (Index_btree.find idx value)
  | None ->
    (match Hashtbl.find_opt t.hash_indexes attr with
     | Some idx ->
       t.used_index <- true;
       materialize t (Index_hash.find idx value)
     | None ->
       t.used_index <- false;
       (match Tuple.attr_index t.desc attr with
        | None -> []
        | Some i ->
          select t (fun _ tuple -> Value.equal (Tuple.get tuple i) value)))
let lookup_range t attr ?lo ?hi () =
  match Hashtbl.find_opt t.btree_indexes attr with
  | Some idx ->
    t.used_index <- true;
    materialize t (Index_btree.range idx ?lo ?hi ())
  | None ->
    t.used_index <- false;
    (match Tuple.attr_index t.desc attr with
     | None -> []
     | Some i ->
       let ge v bound =
         match bound with
         | None -> true
         | Some b ->
           (match Vorder.compare v b with Ok c -> c >= 0 | Error _ -> false)
       in
       let le v bound =
         match bound with
         | None -> true
         | Some b ->
           (match Vorder.compare v b with Ok c -> c <= 0 | Error _ -> false)
       in
       let rows =
         select t (fun _ tuple ->
             let v = Tuple.get tuple i in
             ge v lo && le v hi)
       in
       (* deliver in key order like the index would *)
       List.sort
         (fun (_, t1) (_, t2) ->
           match Vorder.compare (Tuple.get t1 i) (Tuple.get t2 i) with
           | Ok c -> c
           | Error _ -> 0)
         rows)

let last_access_used_index t = t.used_index
