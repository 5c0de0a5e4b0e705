(* In-memory spans recorded from outside the program: around each
   GaeaQL statement (with its parse and execute halves as children),
   around each kernel API call and probe, and — from the kernel's
   public event bus — around each primitive task, from its
   [Cache_miss] to its [Task_recorded].  Spans are kept in memory while
   the run measures and written out when it ends.  With tracing off
   every entry point is a single branch. *)

module Kernel = Gaea_core.Kernel
module Events = Gaea_core.Events

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : int64;
  mutable t1 : int64;
}

let on = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let reset () =
  finished := [];
  open_spans := [];
  next_id := 0

let current_parent () =
  match !open_spans with s :: _ -> s.id | [] -> 0

let add name ~parent t0 t1 =
  incr next_id;
  finished := { id = !next_id; parent; name; t0; t1 } :: !finished

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let s =
      { id = !next_id; parent = current_parent (); name;
        t0 = Measure.now_ns (); t1 = 0L }
    in
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Measure.now_ns ();
        open_spans := List.tl !open_spans;
        finished := s :: !finished)
  end

(* Primitive-task intervals from the bus.  A compound's [Cache_miss]
   never meets a [Task_recorded] of its own name; it is dropped when
   the enclosing operation ends ([end_op]). *)
let pending : (string * int64) list ref = ref []

let subscribe kernel =
  Events.subscribe (Kernel.bus kernel) ~name:"perfbench-trace" (fun ev ->
      if !on then
        match ev with
        | Events.Cache_miss { process; _ } ->
          pending := (process, Measure.now_ns ()) :: !pending
        | Events.Task_recorded { process; _ } ->
          let rec pop = function
            | [] -> None
            | (p, t0) :: rest when p = process -> Some (t0, rest)
            | _ :: rest -> pop rest
          in
          (match pop !pending with
           | Some (t0, rest) ->
             pending := rest;
             add ("deriver.task." ^ process) ~parent:(current_parent ()) t0
               (Measure.now_ns ())
           | None -> ())
        | _ -> ())

let end_op () = pending := []

let dur_ms s = Measure.ms_between s.t0 s.t1

(* Spans finished since [since] (an id), oldest first. *)
let spans_since since =
  List.rev (List.filter (fun s -> s.id > since) !finished)

let last_id () = !next_id

(* The layer of a span is its name up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer: each span's duration minus the part its
   children cover, summed by layer.  Sorted by layer name. *)
let self_ms_by_layer () =
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ms s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
    !finished;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Float.max 0.
          (dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id))
      in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    !finished;
  List.sort compare (Hashtbl.fold (fun l ms acc -> (l, ms) :: acc) by_layer [])

(* One JSON object per line: id, parent, name, start and end in ns. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent (Json.escape s.name) s.t0 s.t1)
    (List.rev !finished);
  close_out oc

(* Subscribe to a kernel's bus once, and only while tracing is on, so
   the untraced phase runs without the subscriber.  Remembers the last
   few buses: a workload touches one kernel at a time. *)
let attached = ref []

let attach kernel =
  if !on && not (List.memq (Kernel.bus kernel) !attached) then begin
    subscribe kernel;
    attached := List.filteri (fun i _ -> i < 7) (Kernel.bus kernel :: !attached)
  end
