(* Workload [catalog]: a kernel holding a rolling archive of TM scenes
   (hundreds of band objects).  Each iteration one scene arrives and
   the oldest retires, so the archive keeps its size and a faster
   program is not handed a bigger catalog.  After the arrival it
   asks for the per-scene product with DERIVE landcover NEED <scenes>,
   then runs a fixed read mix: SELECT by AT (temporal btree), by
   OVERLAPS (scan), by equality on an unindexed attribute, on a concept
   source, with ORDER BY ... LIMIT, and SHOW LINEAGE.  Parsing, planning
   (Stats.analyze_table on every SELECT), storage scans and indexes,
   binding search and backchain planning dominate; raster work is one
   small classification per scene. *)

module Kernel = Gaea_core.Kernel
module Derivation = Gaea_core.Derivation
module Executor = Gaea_query.Executor
module Value = Gaea_adt.Value
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box
module Synthetic = Gaea_raster.Synthetic

let schema =
  [ "DEFINE CLASS tm_scene ( scene int, band int, sensor string, data image, \
     spatialextent box, timestamp abstime )";
    "DEFINE CLASS landcover ( scene int, numclass int, data image, \
     spatialextent box, timestamp abstime ) DERIVED BY scene_classify";
    "DEFINE CONCEPT acquisition MEMBERS (tm_scene, landcover)";
    "DEFINE PROCESS scene_classify OUTPUT landcover \
     ARGS ( bands SETOF tm_scene CARD 3..3 ) PARAM k = 4 \
     ASSERT card(bands) = 3 ASSERT common(bands.spatialextent) \
     ASSERT common(bands.timestamp) \
     MAP data = unsuperclassify(composite(bands.data), $k) MAP numclass = $k \
     MAP scene = ANYOF bands.scene MAP spatialextent = ANYOF bands.spatialextent \
     MAP timestamp = ANYOF bands.timestamp END" ]

let tiles = 8

(* Scene [j] covers tile [j mod tiles] and was acquired on day [j]. *)
let tile_box tile =
  let x = float_of_int (12 * tile) in
  Box.make ~xmin:x ~ymin:0. ~xmax:(x +. 10.) ~ymax:10.

let day j = Abstime.add_days (Abstime.of_ymd 1990 1 1) j

let date_literal t =
  let y, m, d = Abstime.to_ymd t in
  Printf.sprintf "DATE '%04d-%02d-%02d'" y m d

type t = {
  window : int;  (** live scenes; 3 band objects each *)
  side : int;
  rasters : Gaea_raster.Image.t array array;  (** arrivals cycle through these band triples *)
  rng : Random.State.t;
  mutable exe : Executor.t option;
  mutable next : int;  (** index of the next arriving scene *)
  mutable cycle : int;  (** arrivals since set-up *)
  bands : (int, int list) Hashtbl.t;  (** live scene -> band oids *)
}

let generate ~seed ~tiny =
  let window = if tiny then 6 else 80 and side = 16 in
  let rasters =
    Array.init (window + 16) (fun i ->
        let scene =
          Synthetic.landsat_scene ~seed:((seed * 100_000) + i) ~nrow:side ~ncol:side
            ~bands:3 ~classes:4 ()
        in
        Array.of_list (Gaea_raster.Composite.bands scene.Synthetic.composite))
  in
  { window; side; rasters; rng = Random.State.make [| seed |]; exe = None;
    next = 0; cycle = 0; bands = Hashtbl.create 128 }

let sizes t =
  [ ("scenes", Printf.sprintf "%d live (%d band objects + one product each)" t.window (3 * t.window));
    ("raster", Printf.sprintf "%dx%d Char bands, 4 land-cover classes" t.side t.side);
    ("distinct_band_triples", string_of_int (Array.length t.rasters));
    ("cache", "default budget; it holds the whole working set") ]

let setup_repeats = 25

let band_tuple t j b =
  [ ("scene", Value.int j); ("band", Value.int (b + 1)); ("sensor", Value.string "TM");
    ("data", Value.image t.rasters.(j mod Array.length t.rasters).(b));
    ("spatialextent", Value.box (tile_box (j mod tiles)));
    ("timestamp", Value.abstime (day j)) ]

let exe t = Option.get t.exe
let classify k = Option.get (Kernel.find_process k "scene_classify")

(* The product of scene [j], named explicitly. *)
let execute_product k oids =
  Kernel.execute_process k (classify k) ~inputs:[ ("bands", oids) ]

let products_of k j =
  List.filter
    (fun oid -> Kernel.object_attr k ~cls:"landcover" oid "scene" = Some (Value.int j))
    (Kernel.objects_of_class k "landcover")

(* The starting archive: [window] scenes and their products. *)
let setup t =
  let exe = Gql.session schema in
  let k = Executor.kernel exe in
  Hashtbl.reset t.bands;
  for j = 0 to t.window - 1 do
    let oids =
      List.init 3 (fun b -> Result.get_ok (Kernel.insert_object k ~cls:"tm_scene" (band_tuple t j b)))
    in
    Hashtbl.replace t.bands j oids;
    ignore (Result.get_ok (execute_product k oids))
  done;
  t.exe <- Some exe;
  t.next <- t.window;
  t.cycle <- 0;
  t

let known_defects =
  [ "derive.error: DERIVE landcover: scene_classify: no valid binding found";
    "derive.duplicate_oid" ]

let pick t xs = List.nth xs (Random.State.int t.rng (List.length xs))

(* The heap keeps deleted objects in tombstoned slots that every scan
   still visits, so the archive is set up afresh (outside the clock)
   every [epoch_cycles] arrivals: a faster program must not be handed
   more tombstones. *)
let epoch_cycles = 100

let step ctx t =
  if t.cycle = epoch_cycles then ignore (setup t);
  t.cycle <- t.cycle + 1;
  let exe = exe t in
  let k = Executor.kernel exe in
  let delete cls oid =
    ignore
      (Ops.statement ctx exe (Printf.sprintf "DELETE FROM %s %d" cls oid)
         ~check:(fun _ _ _ ->
           if Kernel.class_of_object k oid = None then Ok (Some "delete")
           else Error (Printf.sprintf "delete.still_live: %d" oid)))
  in
  (* the oldest scene retires with its products *)
  let old = t.next - t.window in
  List.iter (delete "landcover") (products_of k old);
  List.iter (delete "tm_scene") (Option.value ~default:[] (Hashtbl.find_opt t.bands old));
  Hashtbl.remove t.bands old;
  (* a new scene arrives *)
  let j = t.next in
  t.next <- j + 1;
  let oids =
    List.filter_map (fun b -> Gql.insert ctx k ~cls:"tm_scene" (band_tuple t j b)) [ 0; 1; 2 ]
  in
  Hashtbl.replace t.bands j oids;
  (* one product per live scene *)
  let need = Hashtbl.length t.bands in
  ignore (Gql.derive ctx exe ~cls:"landcover" ~need (Printf.sprintf "DERIVE landcover NEED %d" need));
  Option.iter
    (fun l ->
      ignore
        (Layers.probe l "derivation_plan" (fun () -> Derivation.derivation_plan k ~need "landcover"));
      ignore
        (Layers.probe l "find_binding" (fun () ->
             Kernel.find_binding k (classify k)
               ~available:[ ("tm_scene", Kernel.objects_of_class k "tm_scene") ])))
    ctx.Ops.layers;
  (* where DERIVE did not deliver the new scene's product, the scientist
     names the bands; the archive keeps one product per scene *)
  if products_of k j = [] && List.length oids = 3 then
    ignore
      (Ops.run ctx ~kernel:k ~span:"deriver.execute_process" ~what:"product"
         (fun () -> execute_product k oids)
         ~check:(fun task _ -> Result.map (fun () -> Some "derive") (Oracle.product k task)));
  (* the read mix *)
  let live = Hashtbl.fold (fun s _ acc -> s :: acc) t.bands [] |> List.sort compare in
  let some_scene = pick t live in
  let tile = Random.State.int t.rng tiles in
  let b = tile_box tile in
  let probe_box =
    Printf.sprintf "BOX(%g, %g, %g, %g)" (Box.xmin b +. 2.) 2. (Box.xmax b -. 2.) 8.
  in
  Gql.select ctx exe
    (Printf.sprintf "SELECT scene, band, timestamp FROM tm_scene WHERE timestamp AT %s"
       (date_literal (day some_scene)));
  Gql.select ctx exe
    (Printf.sprintf "SELECT scene, band FROM tm_scene WHERE spatialextent OVERLAPS %s" probe_box);
  Gql.select ctx exe
    (Printf.sprintf "SELECT scene, band, sensor FROM tm_scene WHERE scene = %d" (pick t live));
  Gql.select ctx exe
    (Printf.sprintf "SELECT scene, timestamp FROM acquisition WHERE spatialextent OVERLAPS %s"
       probe_box);
  Gql.select ctx exe "SELECT scene, timestamp FROM tm_scene ORDER BY timestamp DESC LIMIT 6";
  match products_of k (pick t live) with
  | oid :: _ -> Gql.lineage ctx exe oid
  | [] -> ()

let kernel t = Option.map Executor.kernel t.exe
