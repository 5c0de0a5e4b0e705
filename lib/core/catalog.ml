module Table = Gaea_storage.Table
module Tuple = Gaea_storage.Tuple

type t = {
  defs : (string, Schema.t * Table.t) Hashtbl.t;
  bus : Events.bus;
}

let create ~bus = { defs = Hashtbl.create 32; bus }

let define t (cls : Schema.t) =
  let name = cls.Schema.c_name in
  if Hashtbl.mem t.defs name then
    Error (Gaea_error.Duplicate { kind = "class"; name })
  else
    match Tuple.descriptor (Schema.storage_attrs cls) with
    | Error e -> Error (Gaea_error.Storage_error (name ^ ": " ^ e))
    | Ok desc ->
      Hashtbl.add t.defs name (cls, Table.create ~name desc);
      Events.emit t.bus (Events.Class_defined name);
      Ok ()

let mem t name = Hashtbl.mem t.defs name
let find t name = Option.map fst (Hashtbl.find_opt t.defs name)

let classes t =
  Hashtbl.fold (fun _ (c, _) acc -> c :: acc) t.defs []
  |> List.sort (fun a b -> compare a.Schema.c_name b.Schema.c_name)

let table t name = Option.map snd (Hashtbl.find_opt t.defs name)
