module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

let orderable = function
  | Vtype.Int | Vtype.Float | Vtype.String | Vtype.Bool | Vtype.Abstime ->
    true
  | Vtype.Composite | Vtype.Image | Vtype.Matrix | Vtype.Vector | Vtype.Box
  | Vtype.Interval | Vtype.Setof _ | Vtype.Any -> false

let comparable a b =
  orderable a
  && (Vtype.equal a b
      || match a, b with
         | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> true
         | _ -> false)

let compare a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Ok (Int.compare x y)
  | Value.VFloat x, Value.VFloat y -> Ok (Float.compare x y)
  | Value.VInt x, Value.VFloat y -> Ok (Float.compare (float_of_int x) y)
  | Value.VFloat x, Value.VInt y -> Ok (Float.compare x (float_of_int y))
  | Value.VString x, Value.VString y -> Ok (String.compare x y)
  | Value.VBool x, Value.VBool y -> Ok (Bool.compare x y)
  | Value.VAbstime x, Value.VAbstime y -> Ok (Gaea_geo.Abstime.compare x y)
  | _ ->
    Error
      (Printf.sprintf "values of types %s and %s are not ordered"
         (Vtype.to_string (Value.type_of a))
         (Vtype.to_string (Value.type_of b)))

let compare_exn a b =
  match compare a b with
  | Ok c -> c
  | Error e -> invalid_arg ("Vorder.compare: " ^ e)
