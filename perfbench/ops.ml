(* Running one operation of a workload: the program call is timed (and
   traced), its result is checked outside the clock, and the outcome is
   filed in the run's ledger — a latency sample under a metric family
   when the check passes, a failure with a reason tag when the call
   errs or the check fails.  No failure aborts the run. *)

module Kernel = Gaea_core.Kernel
module Gaea_error = Gaea_core.Gaea_error
module Parser = Gaea_query.Parser
module Executor = Gaea_query.Executor
module Ast = Gaea_query.Ast

(* Where checkpoints, reports and spans go, inside the checkout. *)
let out_dir = ".bench_out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

type ctx = {
  ledger : Measure.ledger;
  layers : Layers.t option;  (** [Some] during the traced phase *)
  inject : string option;  (** a deliberately wrong answer, for the self-check *)
}

let run ctx ~kernel ~span ?(what = span) call ~check =
  Trace.attach kernel;
  let before = Option.map (fun _ -> Layers.snapshot kernel) ctx.layers in
  let r, ms = Measure.time (fun () -> Trace.span span call) in
  Trace.end_op ();
  let l = ctx.ledger in
  l.Measure.busy_ms <- l.Measure.busy_ms +. ms;
  l.Measure.attempted <- l.Measure.attempted + 1;
  let bucket =
    match r with
    | Error e ->
      Measure.fail l (what ^ ".error: " ^ Gaea_error.to_string e);
      None
    | Ok v ->
      (match check v ms with
       | Ok bucket ->
         Option.iter (fun b -> Measure.add_sample l b ms) bucket;
         bucket
       | Error reason ->
         Measure.fail l reason;
         None)
  in
  (match ctx.layers, before with
   | Some t, Some b -> Layers.after_op t kernel b ~bucket ~ms
   | _ -> ());
  Result.to_option r

(* The execute half of a statement is traced under the layer that does
   the work, so self time lands where it is spent. *)
let execute_span = function
  | Ast.Select _ -> "query.select"
  | Ast.Derive _ -> "derivation.derive"
  | Ast.Refresh_all | Ast.Refresh_object _ -> "refresh.refresh"
  | Ast.Define_class _ | Ast.Define_concept _ | Ast.Define_process _ ->
    "catalog.define"
  | Ast.Delete _ | Ast.Insert _ -> "storage.write"
  | Ast.Verify_object _ | Ast.Verify_task _ | Ast.Show_lineage _ -> "lineage.read"
  | _ -> "query.other"

(* One GaeaQL statement as one operation: [Parser.parse_one] then
   [Executor.execute], each its own child span.  [check] sees the
   parsed statement and the response. *)
let statement ctx exe text ~check =
  let kernel = Executor.kernel exe in
  let what =
    String.lowercase_ascii
      (List.hd (String.split_on_char ' ' (String.trim text)))
  in
  run ctx ~kernel ~span:"query.statement" ~what
    (fun () ->
      let parsed, parse_ms =
        Measure.time (fun () -> Trace.span "query.parse" (fun () -> Parser.parse_one text))
      in
      Option.iter (fun t -> Layers.add t "parse_us" (parse_ms *. 1e3)) ctx.layers;
      match parsed with
      | Error e -> Error e
      | Ok stmt ->
        Result.map
          (fun resp -> (stmt, resp))
          (Trace.span (execute_span stmt) (fun () -> Executor.execute exe stmt)))
    ~check:(fun (stmt, resp) ms -> check stmt resp ms)

let message = function
  | Executor.Message m -> Ok m
  | Executor.Rows _ -> Error "expected a message, got rows"

(* A statement whose only check is that it succeeds with a message. *)
let exec_ok ctx exe text =
  ignore
    (statement ctx exe text ~check:(fun _ resp _ ->
         Result.map (fun _ -> None) (message resp)))
