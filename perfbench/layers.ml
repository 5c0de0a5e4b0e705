(* Per-layer accumulators of a traced run, and the per-layer metrics
   derived from them.  Everything here is measured from outside the
   program: timed calls into each layer's public functions (probes),
   counters read before and after each operation, and the spans of
   [Trace]. *)

module Kernel = Gaea_core.Kernel
module Events = Gaea_core.Events

type t = {
  samples : (string, float list ref) Hashtbl.t;
      (** probe and call timings by name: parse_us, plan_ms, ... *)
  mutable select_ms : float;  (** summed SELECT operation time *)
  mutable plan_ms : float;  (** summed plan probes, one per SELECT *)
  mutable rows_examined : int;
  mutable rows_returned : int;
  mutable index_eligible : int;  (** SELECTs with an indexable predicate *)
  mutable index_used : int;
  mutable derive_ops : int;  (** operations that computed a product *)
  mutable derive_ms : float;
  mutable derive_tasks : int;
  mutable derive_task_ms : float;
  mutable derive_pixels : int;
  mutable ops : int;
  mutable events : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable resident_bytes : int;
  mutable updates : int;
  mutable stale_added : int;
  mutable refresh_calls : int;
  mutable refreshed : int;
  mutable skipped : int;
  mutable refresh_ms : float;
  mutable file_bytes : int;
  mutable raw_bytes : int;
}

let create () =
  { samples = Hashtbl.create 16; select_ms = 0.; plan_ms = 0.;
    rows_examined = 0; rows_returned = 0; index_eligible = 0; index_used = 0;
    derive_ops = 0; derive_ms = 0.; derive_tasks = 0; derive_task_ms = 0.;
    derive_pixels = 0; ops = 0; events = 0; hits = 0; misses = 0;
    evictions = 0; invalidations = 0; resident_bytes = 0; updates = 0;
    stale_added = 0; refresh_calls = 0; refreshed = 0; skipped = 0;
    refresh_ms = 0.; file_bytes = 0; raw_bytes = 0 }

let add t name v =
  match Hashtbl.find_opt t.samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add t.samples name (ref [ v ])

let samples t name =
  match Hashtbl.find_opt t.samples name with Some r -> !r | None -> []

(* A probe: a timed, traced call on state it cannot change.  Its time
   is never part of an operation, so end-to-end numbers exclude it. *)
let probe t name f =
  let r, ms = Measure.time (fun () -> Trace.span ("probe." ^ name) f) in
  add t name ms;
  r

type snapshot = {
  s_events : int;
  s_pixels : int;
  s_cache : Kernel.cache_stats;
  s_span : int;
}

let snapshot kernel =
  { s_events = Events.seen (Kernel.bus kernel);
    s_pixels = (Kernel.counters kernel).Kernel.pixels_processed;
    s_cache = Kernel.cache_stats kernel;
    s_span = Trace.last_id () }

let is_task s =
  String.length s.Trace.name > 13 && String.sub s.Trace.name 0 13 = "deriver.task."

(* Fold one finished operation into the totals. *)
let after_op t kernel b ~bucket ~ms =
  let c = Kernel.cache_stats kernel in
  t.ops <- t.ops + 1;
  t.events <- t.events + Events.seen (Kernel.bus kernel) - b.s_events;
  t.hits <- t.hits + c.Kernel.hits - b.s_cache.Kernel.hits;
  t.misses <- t.misses + c.Kernel.misses - b.s_cache.Kernel.misses;
  t.evictions <- t.evictions + c.Kernel.evictions - b.s_cache.Kernel.evictions;
  t.invalidations <-
    t.invalidations + c.Kernel.invalidations - b.s_cache.Kernel.invalidations;
  t.resident_bytes <- c.Kernel.resident_bytes;
  if bucket = Some "derive" then begin
    let tasks = List.filter is_task (Trace.spans_since b.s_span) in
    t.derive_ops <- t.derive_ops + 1;
    t.derive_ms <- t.derive_ms +. ms;
    t.derive_tasks <- t.derive_tasks + List.length tasks;
    t.derive_task_ms <-
      List.fold_left (fun acc s -> acc +. Trace.dur_ms s) t.derive_task_ms tasks;
    t.derive_pixels <-
      t.derive_pixels + (Kernel.counters kernel).Kernel.pixels_processed
      - b.s_pixels
  end

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
let p50 xs = Option.value ~default:0. (Measure.median xs)

(* The per-layer metrics of BENCHMARK.json, in its order, each with its
   unit.  A layer that did no work on a workload reports 0.
   [task_ms] gives the primitive-task durations by process. *)
let metrics t ~task_ms ~overhead_share =
  let all_tasks = List.concat_map snd task_ms in
  let task p = p50 (Option.value ~default:[] (List.assoc_opt p task_ms)) in
  let mb_per_s name =
    ratio (float_of_int t.raw_bytes /. 1e6) (p50 (samples t name) /. 1e3)
  in
  [ ("query.parse_us.p50", p50 (samples t "parse_us"), "us");
    ("query.plan_select_ms.p50", p50 (samples t "plan_select"), "ms");
    ("query.plan_share", ratio t.plan_ms t.select_ms, "ratio");
    ("query.rows_examined_per_row", ratio_i t.rows_examined t.rows_returned, "ratio");
    ("storage.index_used_ratio", ratio_i t.index_used t.index_eligible, "ratio");
    ("storage.insert_us.p50", p50 (samples t "insert_us"), "us");
    ("storage.update_us.p50", p50 (samples t "update_us"), "us");
    ("derivation.plan_us.p50", 1e3 *. p50 (samples t "derivation_plan"), "us");
    ("deriver.binding_us.p50", 1e3 *. p50 (samples t "find_binding"), "us");
    ("deriver.task_ms.p50", p50 all_tasks, "ms");
    ("deriver.task_ms.classify", task "classify", "ms");
    ("deriver.task_ms.spca_change", task "spca_change", "ms");
    ("deriver.task_ms.classify_change", task "classify_change", "ms");
    ("deriver.tasks_per_derive", ratio_i t.derive_tasks t.derive_ops, "count");
    ( "deriver.mpix_per_s",
      ratio (float_of_int t.derive_pixels /. 1e6) (t.derive_task_ms /. 1e3),
      "Mpix/s" );
    ("deriver.busy_share", ratio t.derive_task_ms t.derive_ms, "ratio");
    ("cache.hit_ratio", ratio_i t.hits (t.hits + t.misses), "ratio");
    ("cache.evictions", float_of_int t.evictions, "count");
    ("cache.invalidations", float_of_int t.invalidations, "count");
    ("cache.resident_mb", float_of_int t.resident_bytes /. 1e6, "MB");
    ("refresh.stale_per_update", ratio_i t.stale_added t.updates, "count");
    ("refresh.refreshed_per_call", ratio_i t.refreshed t.refresh_calls, "count");
    ("refresh.skipped", float_of_int t.skipped, "count");
    ("refresh.us_per_object", 1e3 *. ratio t.refresh_ms (float_of_int t.refreshed), "us");
    ("persist.bytes_per_raw_byte", ratio_i t.file_bytes t.raw_bytes, "ratio");
    ("persist.save_mb_per_s", mb_per_s "persist_save", "MB/s");
    ("persist.load_mb_per_s", mb_per_s "persist_load", "MB/s");
    ("events.per_op", ratio_i t.events t.ops, "count");
    ("trace.overhead_share", overhead_share, "ratio") ]
