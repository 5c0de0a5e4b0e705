(* The checked operations the workloads share: ingestion, SELECT
   against the brute-force oracle (plus, when traced, the planner,
   index and rows-examined probes), DERIVE with its object checks,
   SHOW LINEAGE and REFRESH. *)

module Kernel = Gaea_core.Kernel
module Executor = Gaea_query.Executor
module Optimizer = Gaea_query.Optimizer
module Plan = Gaea_query.Plan
module Ast = Gaea_query.Ast
module Table = Gaea_storage.Table

(* A fresh kernel with [schema] defined (set-up only: unchecked). *)
let session schema =
  let exe = Executor.create () in
  List.iter
    (fun s ->
      match Gaea_query.Parser.parse_one s with
      | Error e -> failwith (Gaea_core.Gaea_error.to_string e)
      | Ok stmt ->
        (match Executor.execute exe stmt with
         | Ok _ -> ()
         | Error e -> failwith (Gaea_core.Gaea_error.to_string e)))
    schema;
  exe

(* Base-data ingestion through [Kernel.insert_object]. *)
let insert ctx k ~cls pairs =
  Ops.run ctx ~kernel:k ~span:"storage.insert" ~what:"ingest"
    (fun () -> Kernel.insert_object k ~cls pairs)
    ~check:(fun oid ms ->
      Option.iter (fun l -> Layers.add l "insert_us" (ms *. 1e3)) ctx.Ops.layers;
      Result.map (fun () -> Some "ingest") (Oracle.written k ~cls oid pairs))

let indexable tab = function
  | Ast.P_compare (a, Ast.C_eq, _) ->
    Table.has_hash_index tab a || Table.has_btree_index tab a
  | Ast.P_compare (a, (Ast.C_lt | Ast.C_le | Ast.C_gt | Ast.C_ge), _)
  | Ast.P_at (a, _) ->
    Table.has_btree_index tab a
  | _ -> false

(* Planner, index-use and rows-examined probes for one SELECT.  The
   index flag is read before the lookup probe, which sets it again. *)
let select_probes l k (s : Ast.select) ~rows ~ms =
  l.Layers.select_ms <- l.Layers.select_ms +. ms;
  l.Layers.rows_returned <- l.Layers.rows_returned + rows;
  let planned, plan_ms =
    Measure.time (fun () ->
        Layers.probe l "plan_select" (fun () -> Optimizer.plan_select k s))
  in
  match planned with
  | Error _ -> ()
  | Ok plan ->
    l.Layers.plan_ms <- l.Layers.plan_ms +. plan_ms;
    let first = List.hd plan.Plan.classes in
    let others =
      List.fold_left (fun acc c -> acc + Kernel.count_objects k c) 0
        (List.tl plan.Plan.classes)
    in
    (match Kernel.class_table k first with
     | None -> ()
     | Some tab ->
       if List.exists (indexable tab) s.Ast.where_ then begin
         l.Layers.index_eligible <- l.Layers.index_eligible + 1;
         if plan.Plan.path <> Plan.Full_scan && Table.last_access_used_index tab
         then l.Layers.index_used <- l.Layers.index_used + 1
       end;
       let first_rows =
         match plan.Plan.path with
         | Plan.Full_scan -> Table.row_count tab
         | Plan.Index_eq (a, v) ->
           Layers.probe l "index_lookup" (fun () -> List.length (Table.lookup_eq tab a v))
         | Plan.Index_range (a, lo, hi) ->
           Layers.probe l "index_lookup" (fun () ->
               List.length (Table.lookup_range tab a ?lo ?hi ()))
       in
       l.Layers.rows_examined <- l.Layers.rows_examined + first_rows + others)

let drop_last = function [] -> [] | rows -> List.rev (List.tl (List.rev rows))

let select ctx exe text =
  let k = Executor.kernel exe in
  ignore
    (Ops.statement ctx exe text ~check:(fun stmt resp ms ->
         match stmt, resp with
         | Ast.Select s, Executor.Rows { rows; _ } ->
           let rows = if ctx.Ops.inject = Some "select-drop-row" then drop_last rows else rows in
           Option.iter (fun l -> select_probes l k s ~rows:(List.length rows) ~ms) ctx.Ops.layers;
           Result.map (fun () -> Some "query") (Oracle.select k s rows)
         | _ -> Error "select.not_rows"))

(* Returns the delivered objects when the DERIVE passed its checks. *)
let derive ctx exe ~cls ~need text =
  let k = Executor.kernel exe in
  let delivered = ref None in
  ignore
    (Ops.statement ctx exe text ~check:(fun _ resp _ ->
         Result.bind (Ops.message resp) (fun msg ->
             Result.bind (Oracle.derived_objects msg) (fun oids ->
                 let oids =
                   match ctx.Ops.inject, oids with
                   | Some "derive-dup-oid", a :: _ -> List.map (fun _ -> a) oids
                   | _ -> oids
                 in
                 Result.map
                   (fun () ->
                     delivered := Some oids;
                     Some (if Oracle.computed msg then "derive" else "query"))
                   (Oracle.derive k ~cls ~need oids)))));
  !delivered

let lineage ctx exe oid =
  let k = Executor.kernel exe in
  ignore
    (Ops.statement ctx exe (Printf.sprintf "SHOW LINEAGE %d" oid) ~check:(fun _ resp _ ->
         Result.bind (Ops.message resp) (fun msg ->
             Result.map (fun () -> None) (Oracle.lineage k oid msg))))

(* REFRESH ALL ([target = None]) or REFRESH <cls> <oid>. *)
let refresh ctx exe ?target ~sample () =
  let k = Executor.kernel exe in
  let stale_before = Kernel.stale_objects k in
  let text =
    match target with
    | None -> "REFRESH ALL"
    | Some (cls, oid) -> Printf.sprintf "REFRESH %s %d" cls oid
  in
  ignore
    (Ops.statement ctx exe text ~check:(fun _ resp ms ->
         Result.bind (Ops.message resp) (fun msg ->
             Result.map
               (fun (o : Oracle.refresh_outcome) ->
                 Option.iter
                   (fun l ->
                     l.Layers.refresh_calls <- l.Layers.refresh_calls + 1;
                     l.Layers.refreshed <- l.Layers.refreshed + o.Oracle.refreshed;
                     l.Layers.skipped <- l.Layers.skipped + o.Oracle.skipped;
                     l.Layers.refresh_ms <- l.Layers.refresh_ms +. ms)
                   ctx.Ops.layers;
                 Some "refresh")
               (Oracle.refresh k ~stale_before ~target:(Option.map snd target)
                  ~sample msg))))
