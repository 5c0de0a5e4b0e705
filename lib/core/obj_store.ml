module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple
module Oid = Gaea_storage.Oid

type t = {
  alloc : Oid.allocator;
  catalog : Catalog.t;
  oid_class : (Oid.t, string) Hashtbl.t;
  bus : Events.bus;
}

let create ~catalog ~bus =
  { alloc = Oid.allocator (); catalog; oid_class = Hashtbl.create 256; bus }

(* For a class already known to be defined (by [Catalog.find] or the
   oid → class map); the catalog never drops a class. *)
let table t cls = Option.get (Catalog.table t.catalog cls)

let insert t ~cls pairs =
  match Catalog.find t.catalog cls with
  | None -> Error (Gaea_error.Unknown_class cls)
  | Some def ->
    let attrs = Schema.attr_names def in
    let missing = List.filter (fun a -> not (List.mem_assoc a pairs)) attrs in
    let extra = List.filter (fun (a, _) -> not (List.mem a attrs)) pairs in
    if missing <> [] then
      Gaea_error.err
        (Printf.sprintf "%s: missing attribute(s) %s" cls
           (String.concat ", " missing))
    else if extra <> [] then
      Gaea_error.err
        (Printf.sprintf "%s: unknown attribute(s) %s" cls
           (String.concat ", " (List.map fst extra)))
    else begin
      let values = List.map (fun a -> List.assoc a pairs) attrs in
      (* allocated before the insert: a failed insert still consumes it *)
      let oid = Oid.fresh t.alloc in
      match Table.insert (table t cls) oid values with
      | Error e -> Error (Gaea_error.Storage_error e)
      | Ok () ->
        Hashtbl.replace t.oid_class oid cls;
        Events.emit t.bus (Events.Object_inserted { cls; oid });
        Ok oid
    end

let insert_with_oid t ~cls oid pairs =
  match Catalog.find t.catalog cls with
  | None -> Error (Gaea_error.Unknown_class cls)
  | Some def ->
    let attrs = Schema.attr_names def in
    let missing = List.filter (fun a -> not (List.mem_assoc a pairs)) attrs in
    if missing <> [] then
      Gaea_error.err
        (Printf.sprintf "%s: missing attribute(s) %s" cls
           (String.concat ", " missing))
    else begin
      let values = List.map (fun a -> List.assoc a pairs) attrs in
      match Table.insert (table t cls) oid values with
      | Error e -> Error (Gaea_error.Storage_error e)
      | Ok () ->
        Oid.advance_to t.alloc oid;
        Hashtbl.replace t.oid_class oid cls;
        Ok ()
    end

let update t ~cls oid pairs =
  match Hashtbl.find_opt t.oid_class oid with
  | None -> Error (Gaea_error.Unknown_object oid)
  | Some actual when actual <> cls -> Error (Gaea_error.Wrong_class { oid; cls })
  | Some _ ->
    (match Catalog.find t.catalog cls, Catalog.table t.catalog cls with
     | Some def, Some tab ->
       let attrs = Schema.attr_names def in
       let extra = List.filter (fun (a, _) -> not (List.mem a attrs)) pairs in
       if extra <> [] then
         Gaea_error.err
           (Printf.sprintf "%s: unknown attribute(s) %s" cls
              (String.concat ", " (List.map fst extra)))
       else begin
         match Table.get tab oid with
         | None ->
           Error
             (Gaea_error.Storage_error
                (Printf.sprintf "update of %s #%d: tuple missing" cls oid))
         | Some old ->
           let current = List.combine attrs (Tuple.values old) in
           let values =
             List.map
               (fun a ->
                 match List.assoc_opt a pairs with
                 | Some v -> v
                 | None -> List.assoc a current)
               attrs
           in
           (match Table.replace tab oid values with
            | Error e -> Error (Gaea_error.Storage_error e)
            | Ok () ->
              Events.emit t.bus (Events.Object_updated { cls; oid });
              Ok ())
       end
     | _ -> Error (Gaea_error.Unknown_class cls))

let delete t ~cls oid =
  match Hashtbl.find_opt t.oid_class oid with
  | None -> Error (Gaea_error.Unknown_object oid)
  | Some actual when actual <> cls -> Error (Gaea_error.Wrong_class { oid; cls })
  | Some _ ->
    if Table.delete (table t cls) oid then begin
      Hashtbl.remove t.oid_class oid;
      Events.emit t.bus (Events.Object_deleted { cls; oid });
      Ok ()
    end
    else
      (* oid_class said it was there: the table disagrees *)
      Error
        (Gaea_error.Storage_error
           (Printf.sprintf "delete of %s #%d failed" cls oid))

let tuple t ~cls oid =
  Option.bind (Catalog.table t.catalog cls) (fun tab -> Table.get tab oid)

let attr t ~cls oid attr =
  match Catalog.table t.catalog cls with
  | None -> None
  | Some tab -> Table.get_attr tab oid attr

let oids_of_class t cls =
  match Catalog.table t.catalog cls with
  | None -> []
  | Some tab ->
    List.rev (Table.fold tab ~init:[] ~f:(fun acc oid _ -> oid :: acc))

let class_of t oid = Hashtbl.find_opt t.oid_class oid

let count t cls =
  match Catalog.table t.catalog cls with
  | None -> 0
  | Some tab -> Table.row_count tab

let mem t oid = Hashtbl.mem t.oid_class oid
