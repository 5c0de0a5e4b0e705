(* Workload [revise]: writes beside reads.  One kernel holds tens of
   derived pipelines — two compound processes per site that share their
   first step — derived in set-up.  Each cycle updates a few base
   objects in place, now and then re-versions a process through
   GaeaQL, runs REFRESH ALL or REFRESH <cls> <oid>, re-requests
   products through Kernel.execute_process and SELECTs the refreshed
   objects.  Every few cycles it checkpoints (Persist save, then load
   and continue on the loaded kernel).  The result-cache budget is set
   below the derived working set.  Refresh, cache admission and
   eviction, in-place storage updates, event-bus staleness propagation
   and persist do the work; parsing and backchaining do little.

   Re-requests after a load or an eviction derive new objects, so the
   kernel grows as cycles go by.  To keep runs comparable however fast
   the program is, one iteration is an epoch of fixed length that
   starts from a freshly set-up kernel (outside the clock). *)

module Kernel = Gaea_core.Kernel
module Persist = Gaea_core.Persist
module Executor = Gaea_query.Executor
module Value = Gaea_adt.Value
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box
module Synthetic = Gaea_raster.Synthetic

let step_def name out arg body =
  Printf.sprintf
    "DEFINE PROCESS %s OUTPUT %s ARGS ( a %s ) %s MAP site = a.site \
     MAP spatialextent = a.spatialextent MAP timestamp = a.timestamp END"
    name out arg body

(* Re-defining [threshold] installs its next version. *)
let threshold_def cutoff =
  step_def "threshold" "wet_mask" "smoothed"
    (Printf.sprintf "PARAM cutoff = %g MAP data = img_threshold(a.data, $cutoff)" cutoff)

let schema =
  let cls name derived =
    Printf.sprintf
      "DEFINE CLASS %s ( site int, data image, spatialextent box, timestamp abstime )%s"
      name derived
  in
  [ cls "field" ""; cls "smoothed" "";
    cls "wet_mask" " DERIVED BY wetness"; cls "anomaly" " DERIVED BY contrast_map";
    step_def "normalize" "smoothed" "field" "MAP data = img_normalize(a.data)";
    step_def "contrast" "anomaly" "smoothed"
      "PARAM gain = 2.0 MAP data = img_scale($gain, a.data)";
    threshold_def 0.5;
    "DEFINE PROCESS wetness OUTPUT wet_mask ARGS ( a field ) \
     STEP normalize ( a = a ) STEP threshold ( a = STEP 1 ) END";
    "DEFINE PROCESS contrast_map OUTPUT anomaly ARGS ( a field ) \
     STEP normalize ( a = a ) STEP contrast ( a = STEP 1 ) END" ]

type t = {
  sites : int;
  side : int;
  updates : Gaea_raster.Image.t array;  (** replacement rasters for updates *)
  rng : Random.State.t;
  epoch_cycles : int;
  checkpoint_at : int;
  mutable fields : int array;  (** site -> base object oid *)
  mutable exe : Executor.t option;
  mutable cycle : int;  (** within the epoch *)
  mutable working_set : int;  (** derived raster bytes after set-up *)
}

let generate ~seed ~tiny =
  let sites = if tiny then 4 else 24 and side = 16 in
  let updates =
    Array.init 32 (fun i ->
        Synthetic.value_noise ~seed:((seed * 100_000) + 50_000 + i) ~nrow:side ~ncol:side ())
  in
  { sites; side; updates; rng = Random.State.make [| seed |];
    epoch_cycles = 48; checkpoint_at = 24; fields = [||]; exe = None; cycle = 0;
    working_set = 0 }

let budget t = t.working_set / 2

let sizes t =
  [ ("pipelines", Printf.sprintf "%d sites x 2 compounds sharing their first step (%d derived objects)" t.sites (3 * t.sites));
    ("raster", Printf.sprintf "%dx%d Float8" t.side t.side);
    ( "cycles",
      Printf.sprintf "epochs of %d cycles, one checkpoint after cycle %d" t.epoch_cycles
        t.checkpoint_at );
    ("derived_working_set_bytes", string_of_int t.working_set);
    ("cache_budget_bytes", string_of_int (budget t)) ]

let setup_repeats = 41
let checkpoint_file = Filename.concat Ops.out_dir "revise.ckpt"
let proc k name = Option.get (Kernel.find_process k name)
let compounds = [| "wetness"; "contrast_map" |]
let date i = Abstime.add_days (Abstime.of_ymd 1995 6 1) i

let field_tuple site img i =
  [ ("site", Value.int site); ("data", Value.image img);
    ( "spatialextent",
      Value.box
        (Box.make ~xmin:(float_of_int site) ~ymin:0. ~xmax:(float_of_int site +. 1.) ~ymax:1.) );
    ("timestamp", Value.abstime (date i)) ]

(* Derive every pipeline; the cache budget is then set to half the
   derived working set. *)
let setup t =
  let exe = Gql.session schema in
  let k = Executor.kernel exe in
  t.fields <-
    Array.init t.sites (fun s ->
        Result.get_ok
          (Kernel.insert_object k ~cls:"field"
             (field_tuple s t.updates.(s mod Array.length t.updates) 0)));
  Array.iter
    (fun oid ->
      Array.iter
        (fun p ->
          ignore (Result.get_ok (Kernel.execute_process k (proc k p) ~inputs:[ ("a", [ oid ]) ])))
        compounds)
    t.fields;
  t.working_set <-
    Oracle.raw_bytes k
    - Array.fold_left
        (fun acc oid ->
          match Kernel.object_attr k ~cls:"field" oid "data" with
          | Some v -> acc + Oracle.value_bytes v
          | None -> acc)
        0 t.fields;
  Kernel.set_cache_budget k (budget t);
  t.exe <- Some exe;
  t.cycle <- 0;
  t

let known_defects = []

let cycle ctx t =
  let exe = Option.get t.exe in
  let k = Executor.kernel exe in
  t.cycle <- t.cycle + 1;
  (* in-place updates of a few base objects *)
  let updated =
    List.init 3 (fun _ -> Random.State.int t.rng t.sites) |> List.sort_uniq compare
  in
  List.iter
    (fun site ->
      let oid = t.fields.(site) in
      let pairs =
        [ ("data", Value.image t.updates.(Random.State.int t.rng (Array.length t.updates)));
          ("timestamp", Value.abstime (date t.cycle)) ]
      in
      let stale_before = List.length (Kernel.stale_objects k) in
      ignore
        (Ops.run ctx ~kernel:k ~span:"storage.update" ~what:"ingest"
           (fun () -> Kernel.update_object k ~cls:"field" oid pairs)
           ~check:(fun () ms ->
             Option.iter
               (fun l ->
                 Layers.add l "update_us" (ms *. 1e3);
                 l.Layers.updates <- l.Layers.updates + 1;
                 l.Layers.stale_added <-
                   l.Layers.stale_added + List.length (Kernel.stale_objects k) - stale_before)
               ctx.Ops.layers;
             Result.map (fun () -> Some "ingest") (Oracle.written k ~cls:"field" oid pairs))))
    updated;
  (* now and then a process gains a version *)
  if t.cycle mod 4 = 0 then begin
    let before = Option.value ~default:0 (Kernel.latest_process_version k "threshold") in
    ignore
      (Ops.statement ctx exe
         (threshold_def (0.4 +. (0.05 *. float_of_int (t.cycle mod 3))))
         ~check:(fun _ _ _ ->
           if Kernel.latest_process_version k "threshold" = Some (before + 1) then Ok None
           else Error "define.version_not_bumped"))
  end;
  (* refresh: usually everything, every third cycle one updated product *)
  (if t.cycle mod 3 = 0 then
     let site = List.hd updated in
     let target =
       List.find_opt
         (fun oid -> Kernel.object_attr k ~cls:"wet_mask" oid "site" = Some (Value.int site))
         (Kernel.stale_objects k)
     in
     match target with
     | Some oid -> Gql.refresh ctx exe ~target:("wet_mask", oid) ~sample:1 ()
     | None -> Gql.refresh ctx exe ~sample:2 ()
   else Gql.refresh ctx exe ~sample:2 ());
  (* re-request products, then read them back *)
  for _ = 1 to 4 do
    let site = Random.State.int t.rng t.sites in
    let name = compounds.(Random.State.int t.rng 2) in
    let clock0 = Kernel.clock k in
    ignore
      (Ops.run ctx ~kernel:k ~span:"deriver.execute_process" ~what:"product"
         (fun () -> Kernel.execute_process k (proc k name) ~inputs:[ ("a", [ t.fields.(site) ]) ])
         ~check:(fun task _ ->
           (* a product served from the cache is a query, one that had
              to be computed is a derivation *)
           let family = if task.Gaea_core.Task.clock > clock0 then "derive" else "query" in
           Result.map (fun () -> Some family) (Oracle.product k task)))
  done;
  List.iter
    (fun site ->
      Gql.select ctx exe
        (Printf.sprintf "SELECT site, timestamp, data FROM wet_mask WHERE site = %d" site))
    updated;
  (* checkpoint: save, load, continue on the loaded kernel *)
  if t.cycle = t.checkpoint_at then begin
    let saved = Oracle.summary k in
    let path = checkpoint_file in
    Ops.ensure_out_dir ();
    let saved_ok =
      Ops.run ctx ~kernel:k ~span:"persist.save" ~what:"save"
        (fun () -> Persist.save_to_file k path)
        ~check:(fun () _ -> Ok (Some "save"))
    in
    if saved_ok <> None then
      match
        Ops.run ctx ~kernel:k ~span:"persist.load" ~what:"load"
          (fun () -> Persist.load_from_file path)
          ~check:(fun loaded _ ->
            Result.map (fun () -> Some "load") (Oracle.checkpoint ~saved loaded))
      with
      | Some loaded ->
        Kernel.set_cache_budget loaded (budget t);
        t.exe <- Some (Executor.create ~kernel:loaded ())
      | None -> ()
  end

(* One epoch: a freshly set-up kernel (outside the clock), then a fixed
   number of cycles with one checkpoint half-way. *)
let step ctx t =
  if t.cycle > 0 then ignore (setup t);
  for _ = 1 to t.epoch_cycles do
    cycle ctx t
  done

let kernel t = Option.map Executor.kernel t.exe
