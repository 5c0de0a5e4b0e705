(* Just enough JSON output for the result line and the report. *)

type t =
  [ `Null
  | `Bool of bool
  | `Int of int
  | `Float of float
  | `String of string
  | `List of t list
  | `Assoc of (string * t) list ]

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

let rec to_string : t -> string = function
  | `Null -> "null"
  | `Bool b -> string_of_bool b
  | `Int i -> string_of_int i
  | `Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | `Float _ -> "null"
  | `String s -> escape s
  | `List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | `Assoc kv ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kv) ^ "}"

let opt_float = function Some f -> `Float f | None -> `Null
