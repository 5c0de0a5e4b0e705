module Image = Gaea_raster.Image
module Composite = Gaea_raster.Composite
module Matrix = Gaea_raster.Matrix
module Pixel = Gaea_raster.Pixel
module Box = Gaea_geo.Box
module Abstime = Gaea_geo.Abstime
module Interval = Gaea_geo.Interval

type t =
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VImage of Image.t
  | VComposite of Composite.t
  | VMatrix of Matrix.t
  | VVector of float array
  | VBox of Box.t
  | VAbstime of Abstime.t
  | VInterval of Interval.t
  | VSet of t list

let type_of = function
  | VInt _ -> Vtype.Int
  | VFloat _ -> Vtype.Float
  | VString _ -> Vtype.String
  | VBool _ -> Vtype.Bool
  | VImage _ -> Vtype.Image
  | VComposite _ -> Vtype.Composite
  | VMatrix _ -> Vtype.Matrix
  | VVector _ -> Vtype.Vector
  | VBox _ -> Vtype.Box
  | VAbstime _ -> Vtype.Abstime
  | VInterval _ -> Vtype.Interval
  | VSet [] -> Vtype.Setof Vtype.Any
  | VSet (x :: _) ->
    let rec first_type = function
      | VSet [] -> Vtype.Setof Vtype.Any
      | VSet (y :: _) -> Vtype.Setof (first_type y)
      | v -> simple_type v
    and simple_type v =
      match v with
      | VInt _ -> Vtype.Int
      | VFloat _ -> Vtype.Float
      | VString _ -> Vtype.String
      | VBool _ -> Vtype.Bool
      | VImage _ -> Vtype.Image
      | VComposite _ -> Vtype.Composite
      | VMatrix _ -> Vtype.Matrix
      | VVector _ -> Vtype.Vector
      | VBox _ -> Vtype.Box
      | VAbstime _ -> Vtype.Abstime
      | VInterval _ -> Vtype.Interval
      | VSet _ -> first_type v
    in
    Vtype.Setof (first_type x)

(* all NaNs are identified: serialization cannot preserve NaN payload
   bits, and scientific reproducibility wants NaN = NaN here *)
let float_bits f =
  if Float.is_nan f then 0x7ff8000000000000L else Int64.bits_of_float f

let rec equal a b =
  match a, b with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> float_bits x = float_bits y
  | VString x, VString y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VImage x, VImage y -> Image.equal x y
  | VComposite x, VComposite y -> Composite.equal x y
  | VMatrix x, VMatrix y -> Matrix.equal x y
  | VVector x, VVector y -> x = y
  | VBox x, VBox y -> Box.equal x y
  | VAbstime x, VAbstime y -> Abstime.equal x y
  | VInterval x, VInterval y -> Interval.equal x y
  | VSet x, VSet y ->
    List.length x = List.length y && List.for_all2 equal x y
  | ( ( VInt _ | VFloat _ | VString _ | VBool _ | VImage _ | VComposite _
      | VMatrix _ | VVector _ | VBox _ | VAbstime _ | VInterval _ | VSet _ ),
      _ ) -> false

let combine h1 h2 = (h1 * 1000003) lxor h2

let float_hash f = Int64.to_int (float_bits f) land max_int

let rec content_hash = function
  | VInt x -> combine 1 x
  | VFloat x -> combine 2 (float_hash x)
  | VString s -> combine 3 (Hashtbl.hash s)
  | VBool b -> combine 4 (if b then 1 else 0)
  | VImage i -> combine 5 (Image.content_hash i)
  | VComposite c -> combine 6 (Composite.content_hash c)
  | VMatrix m ->
    let h = ref (combine 7 (combine (Matrix.rows m) (Matrix.cols m))) in
    for i = 0 to Matrix.rows m - 1 do
      for j = 0 to Matrix.cols m - 1 do
        h := combine !h (float_hash (Matrix.get m i j))
      done
    done;
    !h
  | VVector v ->
    Array.fold_left (fun acc x -> combine acc (float_hash x)) 8 v
  | VBox b ->
    List.fold_left
      (fun acc x -> combine acc (float_hash x))
      9
      [ Box.xmin b; Box.ymin b; Box.xmax b; Box.ymax b ]
  | VAbstime t -> combine 10 (Abstime.to_seconds t)
  | VInterval i ->
    combine 11
      (combine
         (Abstime.to_seconds (Interval.start i))
         (Abstime.to_seconds (Interval.stop i)))
  | VSet items ->
    List.fold_left (fun acc v -> combine acc (content_hash v)) 12 items

let int x = VInt x
let float x = VFloat x
let string x = VString x
let bool x = VBool x
let image x = VImage x
let composite x = VComposite x
let matrix x = VMatrix x
let vector x = VVector x
let box x = VBox x
let abstime x = VAbstime x
let interval x = VInterval x
let set x = VSet x

let type_error expected v =
  Error
    (Printf.sprintf "expected %s, got %s" expected
       (Vtype.to_string (type_of v)))

let to_int = function VInt x -> Ok x | v -> type_error "int" v

let to_float = function
  | VFloat x -> Ok x
  | VInt x -> Ok (float_of_int x)
  | v -> type_error "float" v

let to_string_value = function VString s -> Ok s | v -> type_error "string" v
let to_bool = function VBool b -> Ok b | v -> type_error "bool" v
let to_image = function VImage i -> Ok i | v -> type_error "image" v

let to_composite = function
  | VComposite c -> Ok c
  | VImage i -> Ok (Composite.of_bands [ i ])
  | v -> type_error "composite" v

let to_matrix = function VMatrix m -> Ok m | v -> type_error "matrix" v
let to_vector = function VVector a -> Ok a | v -> type_error "vector" v
let to_box = function VBox b -> Ok b | v -> type_error "box" v
let to_abstime = function VAbstime t -> Ok t | v -> type_error "abstime" v
let to_interval = function VInterval i -> Ok i | v -> type_error "interval" v
let to_set = function VSet l -> Ok l | v -> type_error "set" v

let rec to_display = function
  | VInt x -> string_of_int x
  | VFloat x -> Printf.sprintf "%g" x
  | VString s -> Printf.sprintf "%S" s
  | VBool b -> string_of_bool b
  | VImage i ->
    Printf.sprintf "image<%dx%d:%s>" (Image.img_nrow i) (Image.img_ncol i)
      (Pixel.to_string (Image.img_type i))
  | VComposite c ->
    Printf.sprintf "composite<%d bands, %dx%d>" (Composite.n_bands c)
      (Composite.nrow c) (Composite.ncol c)
  | VMatrix m -> Printf.sprintf "matrix<%dx%d>" (Matrix.rows m) (Matrix.cols m)
  | VVector v -> Printf.sprintf "vector<%d>" (Array.length v)
  | VBox b -> Box.to_string b
  | VAbstime t -> Abstime.to_string t
  | VInterval i -> Interval.to_string i
  | VSet items ->
    "{" ^ String.concat ", " (List.map to_display items) ^ "}"

let pp fmt v = Format.pp_print_string fmt (to_display v)

(* Serialization via S-expressions; floats as hex literals to round-trip
   exactly.  Image pixels are not atoms: each image stands for a raw
   pixel block the caller stores beside the s-expressions. *)
let fatom f = Sexp.atom (Printf.sprintf "%h" f)
let iatom i = Sexp.atom (string_of_int i)

type block = { src : string; off : int; len : int }

let pixel_bytes img = Image.size img * Pixel.size_bytes (Image.img_type img)

(* Integral pixels are whole numbers in range and never -0 (see
   [Pixel.quantize]), so the fixed-width integers hold them exactly;
   float4 pixels are float32 values, so their float32 bits do. *)
let write_pixels img buf off =
  let d = Image.unsafe_data img in
  let last = Array.length d - 1 in
  match Image.img_type img with
  | Pixel.Char ->
    for i = 0 to last do
      Bytes.set_uint8 buf (off + i) (int_of_float (Array.unsafe_get d i))
    done
  | Pixel.Int2 ->
    for i = 0 to last do
      Bytes.set_int16_le buf (off + (2 * i))
        (int_of_float (Array.unsafe_get d i))
    done
  | Pixel.Int4 ->
    for i = 0 to last do
      Bytes.set_int32_le buf (off + (4 * i))
        (Int32.of_float (Array.unsafe_get d i))
    done
  | Pixel.Float4 ->
    for i = 0 to last do
      Bytes.set_int32_le buf (off + (4 * i))
        (Int32.bits_of_float (Array.unsafe_get d i))
    done
  | Pixel.Float8 ->
    for i = 0 to last do
      Bytes.set_int64_le buf (off + (8 * i))
        (Int64.bits_of_float (Array.unsafe_get d i))
    done

(* Every byte pattern decodes to a value the pixel type can hold, so
   the array is wrapped without re-quantizing. *)
let read_pixels ~label ~nrow ~ncol ptype { src; off; len } =
  let w = Pixel.size_bytes ptype in
  let n = len / w in
  if nrow <= 0 || ncol <= 0 || len mod w <> 0 || n mod nrow <> 0
     || n / nrow <> ncol
  then Error "image pixel block length mismatch"
  else begin
    let d = Array.create_float n in
    (match ptype with
     | Pixel.Char ->
       for i = 0 to n - 1 do
         Array.unsafe_set d i (float_of_int (String.get_uint8 src (off + i)))
       done
     | Pixel.Int2 ->
       for i = 0 to n - 1 do
         Array.unsafe_set d i
           (float_of_int (String.get_int16_le src (off + (2 * i))))
       done
     | Pixel.Int4 ->
       for i = 0 to n - 1 do
         Array.unsafe_set d i
           (Int32.to_float (String.get_int32_le src (off + (4 * i))))
       done
     | Pixel.Float4 ->
       for i = 0 to n - 1 do
         Array.unsafe_set d i
           (Int32.float_of_bits (String.get_int32_le src (off + (4 * i))))
       done
     | Pixel.Float8 ->
       for i = 0 to n - 1 do
         Array.unsafe_set d i
           (Int64.float_of_bits (String.get_int64_le src (off + (8 * i))))
       done);
    Ok (Image.unsafe_of_array ~label ~nrow ~ncol ptype d)
  end

let rec to_sexp ~block = function
  | VInt x -> Sexp.list [ Sexp.atom "int"; iatom x ]
  | VFloat x -> Sexp.list [ Sexp.atom "float"; fatom x ]
  | VString s -> Sexp.list [ Sexp.atom "string"; Sexp.atom s ]
  | VBool b -> Sexp.list [ Sexp.atom "bool"; Sexp.atom (string_of_bool b) ]
  | VImage i -> image_to_sexp ~block i
  | VComposite c ->
    Sexp.list
      (Sexp.atom "composite"
       :: List.map (image_to_sexp ~block) (Composite.bands c))
  | VMatrix m ->
    let cells = ref [] in
    for i = Matrix.rows m - 1 downto 0 do
      for j = Matrix.cols m - 1 downto 0 do
        cells := fatom (Matrix.get m i j) :: !cells
      done
    done;
    Sexp.list
      (Sexp.atom "matrix" :: iatom (Matrix.rows m) :: iatom (Matrix.cols m)
       :: !cells)
  | VVector v ->
    Sexp.list (Sexp.atom "vector" :: Array.to_list (Array.map fatom v))
  | VBox b ->
    Sexp.list
      [ Sexp.atom "box"; fatom (Box.xmin b); fatom (Box.ymin b);
        fatom (Box.xmax b); fatom (Box.ymax b) ]
  | VAbstime t -> Sexp.list [ Sexp.atom "abstime"; iatom (Abstime.to_seconds t) ]
  | VInterval i ->
    Sexp.list
      [ Sexp.atom "interval";
        iatom (Abstime.to_seconds (Interval.start i));
        iatom (Abstime.to_seconds (Interval.stop i)) ]
  | VSet items -> Sexp.list (Sexp.atom "set" :: List.map (to_sexp ~block) items)

and image_to_sexp ~block i =
  Sexp.list
    [ Sexp.atom "image";
      iatom (Image.img_nrow i);
      iatom (Image.img_ncol i);
      Sexp.atom (Pixel.to_string (Image.img_type i));
      Sexp.atom (Image.img_label i);
      Sexp.list [ Sexp.atom "block"; iatom (block i) ] ]

let ( let* ) r f = Result.bind r f

let atom_of = function
  | Sexp.Atom a -> Ok a
  | Sexp.List _ -> Error "expected atom"

let int_atom s =
  let* a = atom_of s in
  Option.to_result ~none:("not an int: " ^ a) (int_of_string_opt a)

let float_atom s =
  let* a = atom_of s in
  Option.to_result ~none:("not a float: " ^ a) (float_of_string_opt a)

let map_result f items =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) items
  |> Result.map List.rev

let parse_floats cells = Result.map Array.of_list (map_result float_atom cells)

let rec of_sexp ~block sexp =
  match sexp with
  | Sexp.Atom a -> Error ("bare atom: " ^ a)
  | Sexp.List (Sexp.Atom tag :: rest) -> parse_tagged ~block tag rest
  | Sexp.List _ -> Error "list without a tag"

and parse_image_fields ~block fields =
  match fields with
  | nrow :: ncol :: ptype :: label :: pixels ->
    let* nrow = int_atom nrow in
    let* ncol = int_atom ncol in
    let* pt_str = atom_of ptype in
    let* label = atom_of label in
    let* ptype =
      match Pixel.of_string pt_str with
      | Some p -> Ok p
      | None -> Error ("bad pixel type: " ^ pt_str)
    in
    (match pixels with
     | [ Sexp.List [ Sexp.Atom "block"; i ] ] ->
       let* i = int_atom i in
       (match block i with
        | Some b -> read_pixels ~label ~nrow ~ncol ptype b
        | None -> Error (Printf.sprintf "no pixel block %d" i))
     | _ ->
       (* the text format before pixel blocks listed every pixel *)
       let* arr = parse_floats pixels in
       if Array.length arr <> nrow * ncol then Error "image pixel count mismatch"
       else
         (try Ok (Image.of_array ~label ~nrow ~ncol ptype arr)
          with Invalid_argument m -> Error m))
  | _ -> Error "malformed image"

and parse_tagged ~block tag rest =
  match tag, rest with
  | "int", [ a ] -> Result.map int (int_atom a)
  | "float", [ a ] -> Result.map float (float_atom a)
  | "string", [ a ] -> Result.map string (atom_of a)
  | "bool", [ a ] ->
    let* s = atom_of a in
    (match bool_of_string_opt s with
     | Some b -> Ok (bool b)
     | None -> Error ("bad bool: " ^ s))
  | "image", fields -> Result.map image (parse_image_fields ~block fields)
  | "composite", bands ->
    let* imgs =
      map_result
        (function
          | Sexp.List (Sexp.Atom "image" :: fields) ->
            parse_image_fields ~block fields
          | _ -> Error "composite: expected image")
        bands
    in
    (match imgs with
     | [] -> Error "composite: no bands"
     | l ->
       (try Ok (composite (Composite.of_bands l))
        with Invalid_argument m -> Error m))
  | "matrix", rows :: cols :: cells ->
    let* rows = int_atom rows in
    let* cols = int_atom cols in
    let* arr = parse_floats cells in
    if Array.length arr <> rows * cols then Error "matrix cell count mismatch"
    else if rows <= 0 || cols <= 0 then Error "matrix: bad dims"
    else
      Ok (matrix (Matrix.init ~rows ~cols (fun i j -> arr.((i * cols) + j))))
  | "vector", cells -> Result.map vector (parse_floats cells)
  | "box", [ a; b; c; d ] ->
    let* xmin = float_atom a in
    let* ymin = float_atom b in
    let* xmax = float_atom c in
    let* ymax = float_atom d in
    (try Ok (box (Box.make ~xmin ~ymin ~xmax ~ymax))
     with Invalid_argument m -> Error m)
  | "abstime", [ a ] ->
    Result.map (fun s -> abstime (Abstime.of_seconds s)) (int_atom a)
  | "interval", [ a; b ] ->
    let* s = int_atom a in
    let* e = int_atom b in
    (try
       Ok (interval (Interval.make (Abstime.of_seconds s) (Abstime.of_seconds e)))
     with Invalid_argument m -> Error m)
  | "set", items -> Result.map set (map_result (of_sexp ~block) items)
  | tag, _ -> Error ("unknown or malformed tag: " ^ tag)
