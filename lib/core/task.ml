module Value = Gaea_adt.Value

type t = {
  task_id : int;
  process : string;
  process_version : int;
  inputs : (string * Gaea_storage.Oid.t list) list;
  params : (string * Value.t) list;
  outputs : Gaea_storage.Oid.t list;
  output_class : string;
  clock : int;
}

let input_oids t =
  List.concat_map snd t.inputs |> List.sort_uniq Int.compare

let pp fmt t =
  Format.fprintf fmt "@[<h>task #%d: %s v%d (%s) -> %s {%s} @@%d@]" t.task_id
    t.process t.process_version
    (String.concat "; "
       (List.map
          (fun (arg, oids) ->
            Printf.sprintf "%s=[%s]" arg
              (String.concat "," (List.map string_of_int oids)))
          t.inputs))
    t.output_class
    (String.concat "," (List.map string_of_int t.outputs))
    t.clock
