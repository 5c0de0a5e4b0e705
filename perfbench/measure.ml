(* Monotonic timing, sample statistics and the operation ledger of one
   run.  Every duration the benchmark reports comes from [now_ns]. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

(* Linearly interpolated quantile, [q] in [0, 1]. *)
let quantile q = function
  | [] -> None
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    Some
      (if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
       else a.(i))

let median xs = quantile 0.5 xs

(* A percentile is only meaningful with at least ten samples beyond it. *)
let tail_ok q n = float_of_int n *. (1. -. q) >= 10.

(* Failure reasons group by shape: OIDs and counts inside error texts
   become [N], so one defect yields one tag however often it fires. *)
let reason_tag s =
  let b = Buffer.create (String.length s) in
  let prev_digit = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !prev_digit then Buffer.add_char b 'N';
        prev_digit := true
      end
      else begin
        prev_digit := false;
        Buffer.add_char b (if c = '\n' then ' ' else c)
      end)
    s;
  let t = Buffer.contents b in
  if String.length t > 120 then String.sub t 0 120 else t

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;
  buckets : (string, float list ref) Hashtbl.t;
      (** latency samples (ms) of correct operations, by metric family *)
  mutable busy_ms : float;  (** time spent inside program calls *)
  mutable slice_rates : float list;
      (** correct operations per busy second, one per time slice *)
  slice_p50s : (string, float list ref) Hashtbl.t;
      (** per metric family, the median latency of each time slice *)
  marks : (string, int) Hashtbl.t;  (** samples per family at the last slice end *)
  mutable mark : int * float;  (** correct operations and busy time then *)
}

let ledger () =
  { attempted = 0; failed = 0; reasons = Hashtbl.create 8;
    buckets = Hashtbl.create 8; busy_ms = 0.; slice_rates = [];
    slice_p50s = Hashtbl.create 8; marks = Hashtbl.create 8; mark = (0, 0.) }

let add_sample l bucket ms =
  match Hashtbl.find_opt l.buckets bucket with
  | Some r -> r := ms :: !r
  | None -> Hashtbl.add l.buckets bucket (ref [ ms ])

let samples l bucket =
  match Hashtbl.find_opt l.buckets bucket with Some r -> !r | None -> []

let fail l reason =
  l.failed <- l.failed + 1;
  let tag = reason_tag reason in
  Hashtbl.replace l.reasons tag
    (1 + Option.value ~default:0 (Hashtbl.find_opt l.reasons tag))

let correct l = l.attempted - l.failed

(* End a time slice: record its rate of correct operations and, per
   metric family, the median latency of the samples it added. *)
let close_slice l =
  let c0, b0 = l.mark in
  let busy = l.busy_ms -. b0 in
  if busy > 0. then
    l.slice_rates <- (float_of_int (correct l - c0) /. (busy /. 1e3)) :: l.slice_rates;
  l.mark <- (correct l, l.busy_ms);
  Hashtbl.iter
    (fun family r ->
      let n = List.length !r in
      let seen = Option.value ~default:0 (Hashtbl.find_opt l.marks family) in
      match median (List.filteri (fun i _ -> i < n - seen) !r) with
      | Some m ->
        Hashtbl.replace l.marks family n;
        (match Hashtbl.find_opt l.slice_p50s family with
         | Some p -> p := m :: !p
         | None -> Hashtbl.add l.slice_p50s family (ref [ m ]))
      | None -> ())
    l.buckets

(* The mean over slices of each slice's median.  The median inside a
   slice keeps a pause (a major collection, a preempted op) out of the
   result.  The host's speed shifts between levels for seconds to
   minutes at a time; the mean over slices moves in proportion to the
   share of the run spent at each level, where a median over slices
   would jump from one level to the other as that share crosses one
   half. *)
let slice_mean_of_medians l family =
  match Hashtbl.find_opt l.slice_p50s family with
  | Some { contents = _ :: _ as p } ->
    Some (List.fold_left ( +. ) 0. p /. float_of_int (List.length p))
  | _ -> median (samples l family)

(* Peak resident set size of this process ([VmHWM]), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> Some (float_of_int kb /. 1024.))
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r
