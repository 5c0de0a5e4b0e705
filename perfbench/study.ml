(* Workload [study]: one scientist's study session per iteration, each
   in a fresh kernel.  The session defines the Fig 3 / Fig 5 schema in
   GaeaQL, ingests two dates x 3 TM bands, derives the land cover of
   both dates (DERIVE land_cover NEED 2), then the classified change
   between them (DERIVE land_cover_changes, the Fig 5 compound) and a
   mask of the change image (DERIVE change_mask), SELECTs the results
   and VERIFYs the change product.  The mask keeps derive_ms.p50 off the
   gap between the two heavy DERIVEs: with three computing DERIVEs per
   session the median is the change DERIVE, the p90 the land cover.  Raster operators, the
   domain pool and template evaluation do nearly all the work; the
   result cache never hits, and parsing, planning, refresh and persist
   are a small share. *)

module Kernel = Gaea_core.Kernel
module Executor = Gaea_query.Executor
module Value = Gaea_adt.Value
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box
module Extent = Gaea_geo.Extent
module Interval = Gaea_geo.Interval
module Synthetic = Gaea_raster.Synthetic
module Composite = Gaea_raster.Composite

(* CARD 3..3 / 6..6, not CARD 3: a bare CARD n means "at least n" and
   greedily binds every object of the class. *)
let schema =
  [ "DEFINE CLASS tm_band ( area string, band int, data image, \
     spatialextent box, timestamp abstime )";
    "DEFINE CLASS land_cover ( area string, numclass int, data image, \
     spatialextent box, timestamp abstime ) DERIVED BY classify";
    "DEFINE CLASS tm_change_image ( data image, spatialextent box, \
     timestamp abstime )";
    "DEFINE CLASS land_cover_changes ( area string, numclass int, data image, \
     spatialextent box, timestamp abstime ) DERIVED BY land_change_detection";
    "DEFINE PROCESS classify OUTPUT land_cover \
     ARGS ( bands SETOF tm_band CARD 3..3 ) PARAM k = 12 \
     ASSERT card(bands) = 3 ASSERT common(bands.spatialextent) \
     ASSERT common(bands.timestamp) \
     MAP data = unsuperclassify(composite(bands.data), $k) MAP numclass = $k \
     MAP area = ANYOF bands.area MAP spatialextent = ANYOF bands.spatialextent \
     MAP timestamp = ANYOF bands.timestamp END";
    "DEFINE PROCESS spca_change OUTPUT tm_change_image \
     ARGS ( bands SETOF tm_band CARD 6..6 ) \
     ASSERT card(bands) = 6 ASSERT common(bands.spatialextent) \
     MAP data = composite_band(spca(composite(bands.data), 2), 1) \
     MAP spatialextent = ANYOF bands.spatialextent \
     MAP timestamp = ANYOF bands.timestamp END";
    "DEFINE PROCESS classify_change OUTPUT land_cover_changes \
     ARGS ( change tm_change_image ) PARAM k = 5 \
     MAP data = unsuperclassify(composite(change.data), $k) MAP numclass = $k \
     MAP area = 'africa-west' MAP spatialextent = change.spatialextent \
     MAP timestamp = change.timestamp END";
    "DEFINE PROCESS land_change_detection OUTPUT land_cover_changes \
     ARGS ( bands SETOF tm_band CARD 6..6 ) \
     STEP spca_change ( bands = bands ) STEP classify_change ( change = STEP 1 ) END";
    "DEFINE CLASS change_mask ( data image, spatialextent box, timestamp abstime ) \
     DERIVED BY change_threshold";
    "DEFINE PROCESS change_threshold OUTPUT change_mask \
     ARGS ( change tm_change_image ) PARAM cutoff = 0.5 \
     MAP data = img_threshold(img_normalize(change.data), $cutoff) \
     MAP spatialextent = change.spatialextent MAP timestamp = change.timestamp END" ]

type t = {
  inputs : (string * Value.t) list array array;
      (** sessions cycle through these: 6 ingest tuples each, 2 dates x 3 bands *)
  side : int;
  mutable session : int;
  mutable last : Kernel.t option;
}

let dates = [| (1986, 1, 15); (1989, 1, 15) |]

(* Two acquisitions of one area, three bands each, from the seed. *)
let generate ~seed ~tiny =
  let side = if tiny then 24 else 128 in
  let sets = if tiny then 2 else 24 in
  let input j =
    let box =
      Box.make ~xmin:(float_of_int (10 * j)) ~ymin:0.
        ~xmax:(float_of_int ((10 * j) + 8)) ~ymax:8.
    in
    let tuples =
      Array.to_list dates
      |> List.mapi (fun d (y, m, day) ->
             let extent = Extent.make box (Interval.instant (Abstime.of_ymd y m day)) in
             let scene =
               Synthetic.landsat_scene ~seed:((seed * 1000) + (j * 10) + d)
                 ~nrow:side ~ncol:side ~bands:3 ~extent ()
             in
             List.mapi
               (fun b img ->
                 [ ("area", Value.string "africa-west");
                   ("band", Value.int (b + 1));
                   ("data", Value.image img);
                   ("spatialextent", Value.box box);
                   ("timestamp", Value.abstime (Abstime.of_ymd y m day)) ])
               (Composite.bands scene.Synthetic.composite))
      |> List.concat
    in
    Array.of_list tuples
  in
  { inputs = Array.init sets input; side; session = 0; last = None }

let sizes t =
  [ ("raster", Printf.sprintf "%dx%d Char, 6 bands per session" t.side t.side);
    ("input_sets", string_of_int (Array.length t.inputs));
    ("cache", "default budget; no DERIVE in a session repeats a binding") ]

let setup_repeats = 201

(* The fixed start of every session: a kernel with the schema. *)
let setup t =
  ignore (Gql.session schema);
  t

let known_defects = []

let step ctx t =
  let input = t.inputs.(t.session mod Array.length t.inputs) in
  t.session <- t.session + 1;
  let exe = Executor.create () in
  let k = Executor.kernel exe in
  t.last <- Some k;
  List.iter (Ops.exec_ok ctx exe) schema;
  Array.iter (fun pairs -> ignore (Gql.insert ctx k ~cls:"tm_band" pairs)) input;
  let derive cls need =
    let text =
      if need = 1 then Printf.sprintf "DERIVE %s" cls
      else Printf.sprintf "DERIVE %s NEED %d" cls need
    in
    Gql.derive ctx exe ~cls ~need text
  in
  ignore (derive "land_cover" 2);
  let changes = derive "land_cover_changes" 1 in
  ignore (derive "change_mask" 1);
  Gql.select ctx exe "SELECT area, numclass, timestamp FROM land_cover_changes";
  let y, m, d = dates.(0) in
  Gql.select ctx exe
    (Printf.sprintf
       "SELECT numclass, timestamp FROM land_cover WHERE timestamp AT DATE '%04d-%02d-%02d'"
       y m d);
  match changes with
  | Some (oid :: _) ->
    ignore
      (Ops.statement ctx exe (Printf.sprintf "VERIFY %d" oid) ~check:(fun _ resp _ ->
           match Ops.message resp with
           | Ok msg when Oracle.ends_with msg "reproduces exactly" -> Ok None
           | Ok msg -> Error ("verify.not_reproduced: " ^ msg)
           | Error e -> Error ("verify." ^ e)))
  | _ -> ()

let kernel t = t.last
