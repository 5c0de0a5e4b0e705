(* Output checks.  Each returns [Ok _] when the program's answer is
   right and [Error reason] otherwise; reasons start with a stable tag
   ("select.row_count", "derive.duplicate_oid", ...).  The SELECT
   oracle is a brute-force scan over [Kernel.objects_of_class] /
   [Kernel.object_attr]; it accepts any answer a correct engine may
   give, so it never depends on OID order or access path. *)

module Kernel = Gaea_core.Kernel
module Concept = Gaea_core.Concept
module Task = Gaea_core.Task
module Tuple = Gaea_storage.Tuple
module Value = Gaea_adt.Value
module Ast = Gaea_query.Ast
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let ends_with s suffix =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

let literal = function
  | Ast.L_int i -> Value.VInt i
  | Ast.L_float f -> Value.VFloat f
  | Ast.L_string s -> Value.VString s
  | Ast.L_bool b -> Value.VBool b
  | Ast.L_date (y, m, d) -> Value.VAbstime (Abstime.of_ymd y m d)
  | Ast.L_box (xmin, ymin, xmax, ymax) -> Value.VBox (Box.make ~xmin ~ymin ~xmax ~ymax)

(* A total order on the attribute types the workloads sort and compare. *)
let compare_values a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Some (compare x y)
  | Value.VFloat x, Value.VFloat y -> Some (Float.compare x y)
  | Value.VString x, Value.VString y -> Some (String.compare x y)
  | Value.VAbstime x, Value.VAbstime y ->
    Some (compare (Abstime.to_seconds x) (Abstime.to_seconds y))
  | _ -> None

let holds kernel ~cls oid = function
  | Ast.P_compare (attr, cmp, lit) ->
    (match Kernel.object_attr kernel ~cls oid attr with
     | None -> false
     | Some v ->
       let lv = literal lit in
       (match compare_values v lv, cmp with
        | Some c, Ast.C_eq -> c = 0
        | Some c, Ast.C_neq -> c <> 0
        | Some c, Ast.C_lt -> c < 0
        | Some c, Ast.C_le -> c <= 0
        | Some c, Ast.C_gt -> c > 0
        | Some c, Ast.C_ge -> c >= 0
        | None, Ast.C_eq -> Value.equal v lv
        | None, Ast.C_neq -> not (Value.equal v lv)
        | None, _ -> false))
  | Ast.P_overlaps (attr, lit) ->
    (match Kernel.object_attr kernel ~cls oid attr, literal lit with
     | Some (Value.VBox b), Value.VBox q -> Box.overlaps b q
     | _ -> false)
  | Ast.P_at (attr, lit) ->
    (match Kernel.object_attr kernel ~cls oid attr, literal lit with
     | Some (Value.VAbstime t), Value.VAbstime day ->
       abs (Abstime.to_seconds t - Abstime.to_seconds day) <= 86_400
     | _ -> false)

let source_classes kernel source =
  match Kernel.find_class kernel source with
  | Some _ -> [ source ]
  | None -> Concept.classes_of (Kernel.concepts kernel) source

(* Every object satisfying the WHERE clause, as (class, oid). *)
let qualifying kernel (s : Ast.select) =
  List.concat_map
    (fun cls ->
      List.filter_map
        (fun oid ->
          if List.for_all (holds kernel ~cls oid) s.Ast.where_ then Some (cls, oid)
          else None)
        (Kernel.objects_of_class kernel cls))
    (source_classes kernel s.Ast.source)

let select kernel (s : Ast.select) rows =
  let expected = qualifying kernel s in
  let want = match s.Ast.limit with Some n -> min n (List.length expected) | None -> List.length expected in
  let class_of oid = List.assoc_opt oid (List.map (fun (c, o) -> (o, c)) expected) in
  let oids = List.map fst rows in
  let* () =
    if List.length rows <> want then
      fail "select.row_count: %d rows, expected %d" (List.length rows) want
    else Ok ()
  in
  let* () =
    if List.length (List.sort_uniq compare oids) <> List.length oids then
      fail "select.duplicate_row"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (oid, pairs) ->
        let* () = acc in
        match class_of oid with
        | None -> fail "select.wrong_row: object %d does not qualify" oid
        | Some cls ->
          let attrs =
            match s.Ast.projection, Kernel.find_class kernel cls with
            | [], Some def -> Gaea_core.Schema.attr_names def
            | attrs, _ -> attrs
          in
          let stored =
            List.filter_map
              (fun a -> Option.map (fun v -> (a, v)) (Kernel.object_attr kernel ~cls oid a))
              attrs
          in
          if List.equal (fun (a, v) (b, w) -> a = b && Value.equal v w) stored pairs then Ok ()
          else fail "select.value_mismatch: object %d" oid)
      (Ok ()) rows
  in
  match s.Ast.order_by with
  | None -> Ok ()
  | Some (attr, dir) ->
    let key (cls, oid) = Kernel.object_attr kernel ~cls oid attr in
    let cmp a b =
      let c =
        match key a, key b with
        | Some x, Some y -> Option.value ~default:0 (compare_values x y)
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> 0
      in
      match dir with Ast.Asc -> c | Ast.Desc -> -c
    in
    let got = List.map (fun oid -> (Option.get (class_of oid), oid)) oids in
    let rec sorted = function
      | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted rest
      | _ -> true
    in
    (* ties may come back in any order: compare the sort keys only *)
    let best = List.filteri (fun i _ -> i < want) (List.stable_sort cmp expected) in
    if not (sorted got) then fail "select.order: rows not sorted by %s" attr
    else if
      List.exists2 (fun a b -> cmp a b <> 0) got best
    then fail "select.order: not the first %d rows by %s" want attr
    else Ok ()

(* ------------------------------------------------------------------ *)
(* DERIVE                                                              *)
(* ------------------------------------------------------------------ *)

(* The object list of a DERIVE response: "objects: [4, 7]". *)
let derived_objects msg =
  let line = List.hd (String.split_on_char '\n' msg) in
  match Scanf.sscanf line "objects: [%[^]]]" (fun s -> s) with
  | exception _ -> Error ("derive.unparsed: " ^ line)
  | "" -> Ok []
  | s -> Ok (List.map (fun x -> int_of_string (String.trim x)) (String.split_on_char ',' s))

let computed msg =
  List.exists
    (fun l -> String.length l > 6 && String.sub l 0 6 = "fired ")
    (String.split_on_char '\n' msg)

(* [need] distinct live objects of [cls], each with a producing task.
   Returns the objects and whether any had to be computed. *)
let derive kernel ~cls ~need oids =
  let* () =
    if List.length oids <> need then
      fail "derive.count: %d objects for NEED %d" (List.length oids) need
    else Ok ()
  in
  let* () =
    if List.length (List.sort_uniq compare oids) <> need then
      fail "derive.duplicate_oid: %d objects, %d distinct" need
        (List.length (List.sort_uniq compare oids))
    else Ok ()
  in
  List.fold_left
    (fun acc oid ->
      let* () = acc in
      if Kernel.class_of_object kernel oid <> Some cls then
        fail "derive.wrong_object: %d is not a live %s" oid cls
      else if Kernel.task_producing kernel oid = None then
        fail "derive.no_task: %d has no producing task" oid
      else Ok ())
    (Ok ()) oids

(* ------------------------------------------------------------------ *)
(* Objects, tasks, lineage                                             *)
(* ------------------------------------------------------------------ *)

let stored_equals kernel ~cls oid pairs =
  List.for_all
    (fun (attr, v) ->
      match Kernel.object_attr kernel ~cls oid attr with
      | Some s -> Value.equal s v
      | None -> false)
    pairs

(* An inserted or updated object holds exactly the values written. *)
let written kernel ~cls oid pairs =
  if stored_equals kernel ~cls oid pairs then Ok ()
  else fail "ingest.value_mismatch: object %d of %s" oid cls

(* The stored object equals a recomputation of the task that produced it. *)
let reproduces kernel oid =
  match Kernel.class_of_object kernel oid, Kernel.task_producing kernel oid with
  | None, _ -> fail "product.not_live: %d" oid
  | _, None -> fail "product.no_task: %d" oid
  | Some cls, Some task ->
    (match Kernel.recompute_task kernel task with
     | Error e -> fail "product.recompute_error: %s" (Gaea_core.Gaea_error.to_string e)
     | Ok values ->
       if stored_equals kernel ~cls oid values then Ok ()
       else fail "product.differs_from_recompute: object %d" oid)

(* A product served by [Kernel.execute_process]: live, fresh, of the
   process's output class and equal to a recomputation. *)
let product kernel (task : Task.t) =
  match task.Task.outputs with
  | [ oid ] ->
    if Kernel.class_of_object kernel oid <> Some task.Task.output_class then
      fail "product.wrong_class: %d" oid
    else if Kernel.object_stale kernel oid then fail "product.stale: %d" oid
    else reproduces kernel oid
  | outs -> fail "product.outputs: %d objects" (List.length outs)

let lineage kernel oid msg =
  let first = List.hd (String.split_on_char '\n' msg) in
  let expected =
    match Kernel.class_of_object kernel oid, Kernel.task_producing kernel oid with
    | Some cls, Some task ->
      Printf.sprintf "object %d : %s <- %s v%d" oid cls task.Task.process
        task.Task.process_version
    | Some cls, None -> Printf.sprintf "object %d : %s (base data)" oid cls
    | None, _ -> "?"
  in
  if String.length first >= String.length expected
     && String.sub first 0 (String.length expected) = expected
  then Ok ()
  else fail "lineage.mismatch: %S" first

(* ------------------------------------------------------------------ *)
(* REFRESH                                                             *)
(* ------------------------------------------------------------------ *)

type refresh_outcome = { refreshed : int; skipped : int }

(* "refreshed 3 object(s) (3 task(s)), 0 left stale" plus one
   "  #oid: reason" line per skip. *)
let parse_refresh msg =
  match String.split_on_char '\n' msg with
  | first :: rest ->
    (match Scanf.sscanf first "refreshed %d object(s) (%d task(s)), %d left stale" (fun r _ s -> (r, s)) with
     | exception _ -> None
     | refreshed, _ ->
       let skipped =
         List.filter_map
           (fun l -> try Some (Scanf.sscanf l "  #%d:" Fun.id) with _ -> None)
           rest
       in
       Some (refreshed, skipped))
  | [] -> None

(* After a REFRESH only reported skips stay stale ([target] narrows the
   claim to one object), and up to [sample] refreshed objects equal a
   recomputation of their new producing task. *)
let refresh kernel ~stale_before ~target ~sample msg =
  match msg with
  | m when ends_with m " is fresh" ->
    (match target with
     | Some oid when List.mem oid stale_before -> fail "refresh.claimed_fresh: %d" oid
     | _ -> Ok { refreshed = 0; skipped = 0 })
  | _ ->
    (match parse_refresh msg with
     | None -> fail "refresh.unparsed: %S" msg
     | Some (refreshed, skipped) ->
       let stale_after = Kernel.stale_objects kernel in
       let must_be_fresh =
         match target with Some oid -> [ oid ] | None -> stale_after
       in
       let* () =
         match
           List.find_opt
             (fun o -> List.mem o stale_after && not (List.mem o skipped))
             must_be_fresh
         with
         | Some o -> fail "refresh.still_stale: %d not reported as skipped" o
         | None -> Ok ()
       in
       let fresh = List.filter (fun o -> not (List.mem o stale_after)) stale_before in
       let picks = List.filteri (fun i _ -> i < sample) (List.rev fresh) in
       let* () =
         List.fold_left
           (fun acc o -> let* () = acc in reproduces kernel o)
           (Ok ()) picks
       in
       Ok { refreshed; skipped = List.length skipped })

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

(* Class names, object and task counts, and a content hash per object. *)
type summary = {
  classes : string list;
  objects : (int * int) list;  (** oid, tuple content hash *)
  tasks : int;
}

let summary kernel =
  let classes = List.map (fun c -> c.Gaea_core.Schema.c_name) (Kernel.classes kernel) in
  let objects =
    List.concat_map
      (fun cls ->
        List.map
          (fun oid ->
            ( oid,
              match Kernel.object_tuple kernel ~cls oid with
              | Some t -> Tuple.content_hash t
              | None -> 0 ))
          (Kernel.objects_of_class kernel cls))
      classes
  in
  { classes; objects = List.sort compare objects; tasks = List.length (Kernel.tasks kernel) }

let checkpoint ~saved loaded =
  let l = summary loaded in
  if l.classes <> saved.classes then fail "persist.classes_differ"
  else if List.length l.objects <> List.length saved.objects then
    fail "persist.object_count: %d, saved %d" (List.length l.objects) (List.length saved.objects)
  else if l.tasks <> saved.tasks then fail "persist.task_count: %d, saved %d" l.tasks saved.tasks
  else if l.objects <> saved.objects then fail "persist.content_hash_differs"
  else Ok ()

(* Raster payload at pixel-type width, in bytes. *)
let rec value_bytes = function
  | Value.VImage img ->
    Gaea_raster.Image.size img
    * Gaea_raster.Pixel.size_bytes (Gaea_raster.Image.img_type img)
  | Value.VComposite c ->
    List.fold_left (fun a i -> a + value_bytes (Value.VImage i)) 0
      (Gaea_raster.Composite.bands c)
  | Value.VSet vs -> List.fold_left (fun a v -> a + value_bytes v) 0 vs
  | _ -> 0

let raw_bytes kernel =
  List.fold_left
    (fun acc (def : Gaea_core.Schema.t) ->
      let cls = def.Gaea_core.Schema.c_name in
      List.fold_left
        (fun acc oid ->
          match Kernel.object_tuple kernel ~cls oid with
          | Some t -> List.fold_left (fun a v -> a + value_bytes v) acc (Tuple.values t)
          | None -> acc)
        acc (Kernel.objects_of_class kernel cls))
    0 (Kernel.classes kernel)
