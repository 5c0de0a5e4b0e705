(* Gaea end-to-end benchmark: GaeaQL workloads run closed loop by one
   client, every answer checked, every metric printed by name and unit.

     gaeabench --workload study|catalog|revise --seed N --seconds S
               --trace 0|1 [--size full|tiny] [--inject KIND]
               [--nproc N] [--git-commit SHA]

   The last stdout line is one JSON object: correct, attempted, failed
   and metrics (the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1).  A full report and, when traced, the spans
   are written under .bench_out.  See README.md. *)

module type WORKLOAD = sig
  type t

  val generate : seed:int -> tiny:bool -> t
  (** Pre-generate every input from the seed; never timed. *)

  val sizes : t -> (string * string) list
  val setup_repeats : int

  val setup : t -> t
  (** Build the starting state; timed, [setup_repeats] times. *)

  val step : Ops.ctx -> t -> unit
  (** One closed-loop iteration: a few checked operations. *)

  val kernel : t -> Gaea_core.Kernel.t option
  (** The kernel the end-of-run persist probe saves. *)

  val known_defects : string list
  (** Failure-reason prefixes of documented defects of the program;
      they count as failures but leave [correct] true. *)
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("study", (module Study)); ("catalog", (module Catalog)); ("revise", (module Revise)) ]

(* The end-to-end metrics of BENCHMARK.json: those a number on every
   workload and every run. *)
let gated_e2e =
  [ "setup_s"; "ops_per_s"; "peak_rss_mb"; "derive_ms.p50"; "query_ms.p50"; "ingest_ms.p50" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  inject : string option;
  nproc : int;
  git_commit : string option;
}

let usage () =
  prerr_endline
    "usage: gaeabench --workload study|catalog|revise --seed N --seconds S \
     --trace 0|1 [--size full|tiny] [--inject select-drop-row|derive-dup-oid] \
     [--nproc N] [--git-commit SHA]";
  exit 2

let parse_args () =
  let a =
    ref
      { workload = ""; seed = 1; seconds = 10.; trace = false; tiny = false;
        inject = None; nproc = Domain.recommended_domain_count ();
        git_commit = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: ("0" | "1" as v) :: r -> a := { !a with trace = v = "1" }; go r
    | "--size" :: ("full" | "tiny" as v) :: r -> a := { !a with tiny = v = "tiny" }; go r
    | "--inject" :: ("select-drop-row" | "derive-dup-oid" as v) :: r ->
      a := { !a with inject = Some v }; go r
    | "--nproc" :: v :: r -> a := { !a with nproc = int_of_string v }; go r
    | "--git-commit" :: v :: r -> a := { !a with git_commit = Some v }; go r
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !a.workload workloads) || !a.seconds <= 0. then usage ();
  !a

(* Run [step] closed loop until [seconds] of wall time have passed, in
   time slices of about a second, at least ten (see
   [Measure.close_slice]).  A step that runs past a slice's end closes
   that slice, and the next slice starts at the next boundary. *)
let slices seconds = max 10 (int_of_float seconds)

let timed_phase (type w) (module W : WORKLOAD with type t = w) (state : w) ctx ~seconds =
  let l = ctx.Ops.ledger in
  let n = slices seconds in
  let slice_ns = Int64.of_float (seconds *. 1e9 /. float_of_int n) in
  let start = Measure.now_ns () in
  let deadline = Int64.add start (Int64.mul slice_ns (Int64.of_int n)) in
  let next = ref (Int64.add start slice_ns) in
  while Measure.now_ns () < deadline do
    W.step ctx state;
    let now = Measure.now_ns () in
    if now >= !next then begin
      Measure.close_slice l;
      while now >= !next do
        next := Int64.add !next slice_ns
      done
    end
  done

(* Correct operations per second spent in the program, over the whole
   timed phase: the counts at its last slice end, which the traced
   half's counts merged in later do not touch. *)
let ops_per_s (l : Measure.ledger) =
  let correct, busy_ms = l.Measure.mark in
  if busy_ms > 0. then float_of_int correct /. (busy_ms /. 1e3) else 0.

(* Every end-to-end metric of the report.  A p50 is the mean of the
   slice medians; a higher percentile is taken over all samples and is
   null unless ten samples lie beyond it.  The sample counts are
   reported. *)
let e2e_report (l : Measure.ledger) ~setup_s ~peak =
  let pct family q =
    let xs = Measure.samples l family in
    Json.opt_float
      (if q = 0.5 then Measure.slice_mean_of_medians l family
       else if Measure.tail_ok q (List.length xs) then Measure.quantile q xs
       else None)
  in
  [ ("setup_s", `Float setup_s, "s");
    ("ops_per_s", `Float (ops_per_s l), "1/s");
    ( "failed_ratio",
      `Float (float_of_int l.Measure.failed /. float_of_int (max 1 l.Measure.attempted)),
      "ratio" );
    ("peak_rss_mb", Json.opt_float peak, "MB");
    ("derive_ms.p50", pct "derive" 0.5, "ms");
    ("derive_ms.p90", pct "derive" 0.9, "ms");
    ("query_ms.p50", pct "query" 0.5, "ms");
    ("query_ms.p99", pct "query" 0.99, "ms");
    ("ingest_ms.p50", pct "ingest" 0.5, "ms");
    ("refresh_ms.p50", pct "refresh" 0.5, "ms");
    ("refresh_ms.p90", pct "refresh" 0.9, "ms");
    ("save_ms.p50", pct "save" 0.5, "ms");
    ("load_ms.p50", pct "load" 0.5, "ms") ]

let metric_json (name, v, unit) = (name, `Assoc [ ("value", v); ("unit", `String unit) ])

let sample_counts (l : Measure.ledger) =
  List.map
    (fun f -> (f, `Int (List.length (Measure.samples l f))))
    [ "derive"; "query"; "ingest"; "refresh"; "save"; "load" ]

let reasons (l : Measure.ledger) =
  Hashtbl.fold (fun tag n acc -> (tag, `Int n) :: acc) l.Measure.reasons []
  |> List.sort compare

let persist_probe layers kernel =
  for _ = 1 to 3 do
    let text = Layers.probe layers "persist_save" (fun () -> Gaea_core.Persist.save kernel) in
    layers.Layers.file_bytes <- String.length text;
    ignore (Layers.probe layers "persist_load" (fun () -> Gaea_core.Persist.load text))
  done;
  layers.Layers.raw_bytes <- Oracle.raw_bytes kernel

let task_ms_by_process () =
  List.fold_left
    (fun acc (s : Trace.span) ->
      if Layers.is_task s then
        let p = String.sub s.Trace.name 13 (String.length s.Trace.name - 13) in
        let prev = Option.value ~default:[] (List.assoc_opt p acc) in
        (p, Trace.dur_ms s :: prev) :: List.remove_assoc p acc
      else acc)
    [] (Trace.spans_since 0)

(* Fold the traced half's operation counts into [into]; its latency
   samples stay out of the end-to-end numbers. *)
let merge_counts ~into (l : Measure.ledger) =
  into.Measure.attempted <- into.Measure.attempted + l.Measure.attempted;
  into.Measure.failed <- into.Measure.failed + l.Measure.failed;
  Hashtbl.iter
    (fun tag n ->
      Hashtbl.replace into.Measure.reasons tag
        (n + Option.value ~default:0 (Hashtbl.find_opt into.Measure.reasons tag)))
    l.Measure.reasons

(* The traced run: an untraced half, then a traced half with probes;
   the difference in ops_per_s is the tracing overhead.  Returns the
   per-layer metrics and the report's "traced" section. *)
let traced_run (type w) (module W : WORKLOAD with type t = w) (state : w) a ctx =
  timed_phase (module W) state ctx ~seconds:(a.seconds /. 2.);
  let layers = Layers.create () in
  let tledger = Measure.ledger () in
  Trace.reset ();
  Trace.on := true;
  timed_phase (module W) state
    { Ops.ledger = tledger; layers = Some layers; inject = a.inject }
    ~seconds:(a.seconds /. 2.);
  Option.iter (persist_probe layers) (W.kernel state);
  Trace.on := false;
  let task_ms = task_ms_by_process () in
  let untraced = ops_per_s ctx.Ops.ledger and traced = ops_per_s tledger in
  let overhead_share = if untraced > 0. then 1. -. (traced /. untraced) else 0. in
  Ops.ensure_out_dir ();
  let spans_path =
    Filename.concat Ops.out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" a.workload a.seed)
  in
  Trace.write spans_path;
  merge_counts ~into:ctx.Ops.ledger tledger;
  ( List.map (fun (n, v, u) -> (n, `Float v, u)) (Layers.metrics layers ~task_ms ~overhead_share),
    [ ("ops_per_s_untraced", `Float untraced);
      ("ops_per_s_traced", `Float traced);
      ( "self_ms_by_layer",
        `Assoc (List.map (fun (l, ms) -> (l, `Float ms)) (Trace.self_ms_by_layer ())) );
      ( "task_ms_p50_by_process",
        `Assoc (List.map (fun (p, xs) -> (p, Json.opt_float (Measure.median xs))) task_ms) );
      ("traced_reasons", `Assoc (reasons tledger));
      ("spans_file", `String spans_path) ] )

let () =
  let a = parse_args () in
  let pool = Gaea_par.Pool.size () in
  if pool > a.nproc then begin
    Printf.eprintf
      "refusing to run: domain pool of %d lanes exceeds nproc = %d (unset GAEA_DOMAINS)\n"
      pool a.nproc;
    exit 3
  end;
  let (module W) = List.assoc a.workload workloads in
  let calibration_before = Host.calibration_ms () in
  let inputs = W.generate ~seed:a.seed ~tiny:a.tiny in
  let setup_times = ref [] and state = ref inputs in
  for _ = 1 to (if a.tiny then 2 else W.setup_repeats) do
    let s, ms = Measure.time (fun () -> W.setup inputs) in
    setup_times := (ms /. 1e3) :: !setup_times;
    state := s
  done;
  let state = !state in
  let setup_s = Option.get (Measure.median !setup_times) in
  (* warm-up: fault in code paths, spawn and calibrate the pool *)
  W.step { Ops.ledger = Measure.ledger (); layers = None; inject = None } state;
  let ledger = Measure.ledger () in
  let ctx = { Ops.ledger; layers = None; inject = a.inject } in
  let metrics, traced =
    if a.trace then traced_run (module W) state a ctx
    else begin
      timed_phase (module W) state ctx ~seconds:a.seconds;
      ([], [])
    end
  in
  (* in a traced run, peak RSS includes the end-of-run persist probe *)
  let e2e = e2e_report ledger ~setup_s ~peak:(Measure.peak_rss_mb ()) in
  let metrics =
    if a.trace then metrics
    else List.filter (fun (name, _, _) -> List.mem name gated_e2e) e2e
  in
  let calibration_after = Host.calibration_ms () in
  let known tag = List.exists (fun p -> String.starts_with ~prefix:p tag) W.known_defects in
  let unexpected = List.filter (fun (tag, _) -> not (known tag)) (reasons ledger) in
  let complete = List.for_all (fun (_, v, _) -> v <> `Null) metrics in
  let report =
    `Assoc
      [ ("workload", `String a.workload);
        ("seed", `Int a.seed);
        ("seconds", `Float a.seconds);
        ("trace", `Bool a.trace);
        ("size", `String (if a.tiny then "tiny" else "full"));
        ( "host",
          `Assoc
            (Host.fields ~git_commit:a.git_commit ~nproc:a.nproc
            @ [ ("calibration_ms_before", `Float calibration_before);
                ("calibration_ms_after", `Float calibration_after) ]) );
        ("inputs", `Assoc (List.map (fun (k, v) -> (k, `String v)) (W.sizes state)));
        ("setup_s_samples", `List (List.map (fun s -> `Float s) !setup_times));
        ("end_to_end", `Assoc (List.map metric_json e2e));
        ( "ops_per_s_slices",
          `List (List.rev_map (fun r -> `Float r) ledger.Measure.slice_rates) );
        ("sample_counts", `Assoc (sample_counts ledger));
        ("failure_reasons", `Assoc (reasons ledger));
        ("unexpected_failure_reasons", `List (List.map (fun (t, _) -> `String t) unexpected));
        ("traced", `Assoc traced) ]
  in
  Ops.ensure_out_dir ();
  let report_path =
    Filename.concat Ops.out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" a.workload a.seed (if a.trace then 1 else 0))
  in
  let oc = open_out report_path in
  output_string oc (Json.to_string report);
  close_out oc;
  print_endline (Json.to_string report);
  print_endline
    (Json.to_string
       (`Assoc
          [ ("correct", `Bool (unexpected = [] && complete));
            ("attempted", `Int ledger.Measure.attempted);
            ("failed", `Int ledger.Measure.failed);
            ("metrics", `Assoc (List.map metric_json metrics)) ]))
