module Sexp = Gaea_adt.Sexp
module Value = Gaea_adt.Value
module Vtype = Gaea_adt.Vtype

let ( let* ) r f = Result.bind r f

let iatom i = Sexp.atom (string_of_int i)

let parse_int = function
  | Sexp.Atom a ->
    (match int_of_string_opt a with
     | Some i -> Ok i
     | None -> Gaea_error.err ("not an int: " ^ a))
  | Sexp.List _ -> Gaea_error.err "expected int atom"

let atom_of = function
  | Sexp.Atom a -> Ok a
  | Sexp.List _ -> Gaea_error.err "expected atom"

let parse_error r = Result.map_error (fun e -> Gaea_error.Parse_error e) r
let value_of_sexp ~block s = parse_error (Value.of_sexp ~block s)

let map_m f items =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) items
  |> Result.map List.rev

let iter_m f items =
  List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) items

(* process parameters and task parameters share one encoding *)
let params_to_sexp ~block params =
  Sexp.list
    (List.map
       (fun (n, v) -> Sexp.list [ Sexp.atom n; Value.to_sexp ~block v ])
       params)

let params_of_sexp ~block =
  map_m (function
    | Sexp.List [ Sexp.Atom n; v ] ->
      Result.map (fun v -> (n, v)) (value_of_sexp ~block v)
    | _ -> Gaea_error.err "malformed parameter")

(* --- schema --------------------------------------------------------- *)

let class_to_sexp (c : Schema.t) =
  Sexp.list
    [ Sexp.atom "class";
      Sexp.atom c.Schema.c_name;
      Sexp.list
        (List.map
           (fun a ->
             Sexp.list
               [ Sexp.atom a.Schema.a_name;
                 Sexp.atom (Vtype.to_string a.Schema.a_type) ])
           c.Schema.attributes);
      Sexp.atom (Option.value ~default:"-" c.Schema.spatial_attr);
      Sexp.atom (Option.value ~default:"-" c.Schema.temporal_attr);
      Sexp.atom (Option.value ~default:"-" (Schema.derived_by c));
      Sexp.atom c.Schema.c_doc ]

let class_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "class"; Sexp.Atom name; Sexp.List attrs; Sexp.Atom sp;
        Sexp.Atom tp; Sexp.Atom der; Sexp.Atom doc ] ->
    let* attributes =
      map_m
        (function
          | Sexp.List [ Sexp.Atom n; Sexp.Atom ty ] ->
            (match Vtype.of_string ty with
             | Some ty -> Ok (n, ty)
             | None -> Gaea_error.err ("unknown type " ^ ty))
          | _ -> Gaea_error.err "malformed attribute")
        attrs
    in
    let opt = function "-" -> None | s -> Some s in
    Schema.define ~name ~doc ~attributes ?spatial:(opt sp) ?temporal:(opt tp)
      ?derived_by:(opt der) ()
  | _ -> Gaea_error.err "malformed class"

(* --- template ------------------------------------------------------- *)

let rec expr_to_sexp ~block = function
  | Template.Const v -> Sexp.list [ Sexp.atom "const"; Value.to_sexp ~block v ]
  | Template.Attr_of (a, attr) ->
    Sexp.list [ Sexp.atom "attr"; Sexp.atom a; Sexp.atom attr ]
  | Template.Param p -> Sexp.list [ Sexp.atom "param"; Sexp.atom p ]
  | Template.Anyof e -> Sexp.list [ Sexp.atom "anyof"; expr_to_sexp ~block e ]
  | Template.Apply (op, args) ->
    Sexp.list
      (Sexp.atom "apply" :: Sexp.atom op :: List.map (expr_to_sexp ~block) args)

let rec expr_of_sexp ~block = function
  | Sexp.List [ Sexp.Atom "const"; v ] ->
    Result.map (fun v -> Template.Const v) (value_of_sexp ~block v)
  | Sexp.List [ Sexp.Atom "attr"; Sexp.Atom a; Sexp.Atom attr ] ->
    Ok (Template.Attr_of (a, attr))
  | Sexp.List [ Sexp.Atom "param"; Sexp.Atom p ] -> Ok (Template.Param p)
  | Sexp.List [ Sexp.Atom "anyof"; e ] ->
    Result.map (fun e -> Template.Anyof e) (expr_of_sexp ~block e)
  | Sexp.List (Sexp.Atom "apply" :: Sexp.Atom op :: args) ->
    Result.map
      (fun args -> Template.Apply (op, args))
      (map_m (expr_of_sexp ~block) args)
  | _ -> Gaea_error.err "malformed expression"

let assertion_to_sexp ~block = function
  | Template.Expr_true e -> Sexp.list [ Sexp.atom "expr"; expr_to_sexp ~block e ]
  | Template.Common_space a -> Sexp.list [ Sexp.atom "common-space"; Sexp.atom a ]
  | Template.Common_time a -> Sexp.list [ Sexp.atom "common-time"; Sexp.atom a ]
  | Template.Card_eq (a, n) ->
    Sexp.list [ Sexp.atom "card-eq"; Sexp.atom a; iatom n ]
  | Template.Card_ge (a, n) ->
    Sexp.list [ Sexp.atom "card-ge"; Sexp.atom a; iatom n ]

let assertion_of_sexp ~block = function
  | Sexp.List [ Sexp.Atom "expr"; e ] ->
    Result.map (fun e -> Template.Expr_true e) (expr_of_sexp ~block e)
  | Sexp.List [ Sexp.Atom "common-space"; Sexp.Atom a ] ->
    Ok (Template.Common_space a)
  | Sexp.List [ Sexp.Atom "common-time"; Sexp.Atom a ] ->
    Ok (Template.Common_time a)
  | Sexp.List [ Sexp.Atom "card-eq"; Sexp.Atom a; n ] ->
    Result.map (fun n -> Template.Card_eq (a, n)) (parse_int n)
  | Sexp.List [ Sexp.Atom "card-ge"; Sexp.Atom a; n ] ->
    Result.map (fun n -> Template.Card_ge (a, n)) (parse_int n)
  | _ -> Gaea_error.err "malformed assertion"

let template_to_sexp ~block (t : Template.t) =
  Sexp.list
    [ Sexp.atom "template";
      Sexp.list (List.map (assertion_to_sexp ~block) t.Template.assertions);
      Sexp.list
        (List.map
           (fun m ->
             Sexp.list
               [ Sexp.atom m.Template.target; expr_to_sexp ~block m.Template.rhs ])
           t.Template.mappings) ]

let template_of_sexp ~block = function
  | Sexp.List [ Sexp.Atom "template"; Sexp.List assertions; Sexp.List mappings ] ->
    let* assertions = map_m (assertion_of_sexp ~block) assertions in
    let* mappings =
      map_m
        (function
          | Sexp.List [ Sexp.Atom target; rhs ] ->
            Result.map
              (fun rhs -> { Template.target; rhs })
              (expr_of_sexp ~block rhs)
          | _ -> Gaea_error.err "malformed mapping")
        mappings
    in
    Ok (Template.make ~assertions ~mappings)
  | _ -> Gaea_error.err "malformed template"

(* --- process -------------------------------------------------------- *)

let arg_to_sexp (a : Process.arg_spec) =
  Sexp.list
    [ Sexp.atom a.Process.arg_name;
      Sexp.atom a.Process.arg_class;
      Sexp.atom (if a.Process.setof then "setof" else "scalar");
      iatom a.Process.card_min;
      (match a.Process.card_max with
       | Some m -> iatom m
       | None -> Sexp.atom "-") ]

let arg_of_sexp = function
  | Sexp.List [ Sexp.Atom name; Sexp.Atom cls; Sexp.Atom kind; cmin; cmax ] ->
    let* card_min = parse_int cmin in
    let* card_max =
      match cmax with
      | Sexp.Atom "-" -> Ok None
      | s -> Result.map Option.some (parse_int s)
    in
    if kind = "scalar" then Ok (Process.scalar_arg name cls)
    else Ok (Process.setof_arg ~card_min ?card_max name cls)
  | _ -> Gaea_error.err "malformed argument"

let process_to_sexp ~block (p : Process.t) =
  let kind =
    match p.Process.kind with
    | Process.Primitive t ->
      Sexp.list [ Sexp.atom "primitive"; template_to_sexp ~block t ]
    | Process.Compound steps ->
      Sexp.list
        (Sexp.atom "compound"
         :: List.map
              (fun s ->
                Sexp.list
                  (Sexp.atom s.Process.step_process
                   :: List.map
                        (fun (arg, input) ->
                          match input with
                          | Process.From_arg a ->
                            Sexp.list [ Sexp.atom arg; Sexp.atom "arg"; Sexp.atom a ]
                          | Process.From_step i ->
                            Sexp.list [ Sexp.atom arg; Sexp.atom "step"; iatom i ])
                        s.Process.step_inputs))
              steps)
  in
  Sexp.list
    [ Sexp.atom "process";
      Sexp.atom p.Process.proc_name;
      iatom p.Process.version;
      Sexp.atom p.Process.output_class;
      Sexp.list (List.map arg_to_sexp p.Process.args);
      params_to_sexp ~block p.Process.params;
      kind;
      Sexp.atom p.Process.doc;
      (match p.Process.derived_from with
       | Some (n, v) -> Sexp.list [ Sexp.atom n; iatom v ]
       | None -> Sexp.atom "-") ]

let process_of_sexp ~block = function
  | Sexp.List
      [ Sexp.Atom "process"; Sexp.Atom name; version; Sexp.Atom output;
        Sexp.List args; Sexp.List params; kind; Sexp.Atom doc; derived_from ]
    ->
    let* version = parse_int version in
    let* args = map_m arg_of_sexp args in
    let* params = params_of_sexp ~block params in
    let* base =
      match kind with
      | Sexp.List [ Sexp.Atom "primitive"; t ] ->
        let* template = template_of_sexp ~block t in
        Process.define_primitive ~name ~doc ~output_class:output ~args ~params
          ~template ()
      | Sexp.List (Sexp.Atom "compound" :: steps) ->
        let* steps =
          map_m
            (function
              | Sexp.List (Sexp.Atom sub :: inputs) ->
                let* step_inputs =
                  map_m
                    (function
                      | Sexp.List [ Sexp.Atom arg; Sexp.Atom "arg"; Sexp.Atom a ] ->
                        Ok (arg, Process.From_arg a)
                      | Sexp.List [ Sexp.Atom arg; Sexp.Atom "step"; i ] ->
                        Result.map
                          (fun i -> (arg, Process.From_step i))
                          (parse_int i)
                      | _ -> Gaea_error.err "malformed step input")
                    inputs
                in
                Ok { Process.step_process = sub; step_inputs }
              | _ -> Gaea_error.err "malformed step")
            steps
        in
        Process.define_compound ~name ~doc ~output_class:output ~args ~steps ()
      | _ -> Gaea_error.err "malformed process kind"
    in
    (* the public constructors make version 1 with no origin; restore
       the saved identity *)
    let* derived_from =
      match derived_from with
      | Sexp.Atom "-" -> Ok None
      | Sexp.List [ Sexp.Atom n; v ] ->
        Result.map (fun v -> Some (n, v)) (parse_int v)
      | _ -> Gaea_error.err "malformed derived_from"
    in
    Ok (Process.with_version ?derived_from base version)
  | _ -> Gaea_error.err "malformed process"

(* --- concepts ------------------------------------------------------- *)

let concepts_to_sexp concepts =
  let all = Concept.all concepts in
  Sexp.list
    (Sexp.atom "concepts"
     :: List.map
          (fun c ->
            Sexp.list
              [ Sexp.atom c.Concept.name;
                Sexp.list (List.map Sexp.atom c.Concept.members);
                Sexp.list
                  (List.map Sexp.atom (Concept.parents concepts c.Concept.name));
                Sexp.atom c.Concept.doc ])
          all)

let restore_concepts kernel = function
  | Sexp.List (Sexp.Atom "concepts" :: entries) ->
    let concepts = Kernel.concepts kernel in
    (* two passes: define all, then add ISA edges *)
    let* parsed =
      map_m
        (function
          | Sexp.List
              [ Sexp.Atom name; Sexp.List members; Sexp.List parents;
                Sexp.Atom doc ] ->
            let* members = map_m atom_of members in
            let* parents = map_m atom_of parents in
            Ok (name, members, parents, doc)
          | _ -> Gaea_error.err "malformed concept")
        entries
    in
    let* () =
      iter_m
        (fun (name, members, _, doc) ->
          Result.map ignore (Concept.define concepts ~name ~doc ~members ()))
        parsed
    in
    iter_m
      (fun (name, _, parents, _) ->
        iter_m (fun super -> Concept.add_isa concepts ~sub:name ~super) parents)
      parsed
  | _ -> Gaea_error.err "malformed concepts section"

(* --- objects -------------------------------------------------------- *)

let objects_to_sexp ~block kernel (c : Schema.t) =
  let cls = c.Schema.c_name in
  let attrs = Schema.attr_names c in
  Sexp.list
    (Sexp.atom "objects" :: Sexp.atom cls
     :: List.map
          (fun oid ->
            Sexp.list
              (iatom oid
               :: List.map
                    (fun a ->
                      Value.to_sexp ~block
                        (Option.get (Kernel.object_attr kernel ~cls oid a)))
                    attrs))
          (Kernel.objects_of_class kernel cls))

let restore_objects ~block kernel = function
  | Sexp.List (Sexp.Atom "objects" :: Sexp.Atom cls :: rows) ->
    (match Kernel.find_class kernel cls with
     | None -> Gaea_error.err ("objects for unknown class " ^ cls)
     | Some def ->
       let attrs = Schema.attr_names def in
       iter_m
         (function
           | Sexp.List (oid :: values) when List.length values = List.length attrs ->
             let* oid = parse_int oid in
             let* values = map_m (value_of_sexp ~block) values in
             Kernel.insert_object_with_oid kernel ~cls oid
               (List.combine attrs values)
           | _ -> Gaea_error.err "malformed object row")
         rows)
  | _ -> Gaea_error.err "malformed objects section"

(* --- tasks ---------------------------------------------------------- *)

let task_to_sexp ~block (t : Task.t) =
  Sexp.list
    [ Sexp.atom "task";
      iatom t.Task.task_id;
      Sexp.atom t.Task.process;
      iatom t.Task.process_version;
      Sexp.list
        (List.map
           (fun (arg, oids) -> Sexp.list (Sexp.atom arg :: List.map iatom oids))
           t.Task.inputs);
      params_to_sexp ~block t.Task.params;
      Sexp.list (List.map iatom t.Task.outputs);
      Sexp.atom t.Task.output_class;
      iatom t.Task.clock ]

let task_of_sexp ~block = function
  | Sexp.List
      [ Sexp.Atom "task"; id; Sexp.Atom process; version; Sexp.List inputs;
        Sexp.List params; Sexp.List outputs; Sexp.Atom output_class; clock ]
    ->
    let* task_id = parse_int id in
    let* process_version = parse_int version in
    let* inputs =
      map_m
        (function
          | Sexp.List (Sexp.Atom arg :: oids) ->
            Result.map (fun oids -> (arg, oids)) (map_m parse_int oids)
          | _ -> Gaea_error.err "malformed input binding")
        inputs
    in
    let* params = params_of_sexp ~block params in
    let* outputs = map_m parse_int outputs in
    let* clock = parse_int clock in
    Ok
      { Task.task_id; process; process_version; inputs; params; outputs;
        output_class; clock }
  | _ -> Gaea_error.err "malformed task"

(* --- cache statistics ------------------------------------------------ *)

let cache_stats_to_sexp kernel =
  let st = Kernel.cache_stats kernel in
  Sexp.list
    [ Sexp.atom "cache-stats";
      iatom st.Kernel.hits;
      iatom st.Kernel.misses;
      iatom st.Kernel.invalidations;
      iatom st.Kernel.admissions;
      iatom st.Kernel.evictions ]

let restore_cache_stats kernel = function
  | Sexp.List [ Sexp.Atom "cache-stats"; h; m; i; a; e ] ->
    let* hits = parse_int h in
    let* misses = parse_int m in
    let* invalidations = parse_int i in
    let* admissions = parse_int a in
    let* evictions = parse_int e in
    Kernel.restore_cache_stats kernel ~hits ~misses ~invalidations ~admissions
      ~evictions;
    Ok ()
  | _ -> Gaea_error.err "malformed cache-stats section"

(* --- whole kernel ---------------------------------------------------- *)

(* The sections, one s-expression per line, appended to [buf]; each
   image is registered with [block] and stands for its raw block. *)
let write_metadata ~block buf kernel =
  let emit s =
    Buffer.add_string buf (Sexp.to_string s);
    Buffer.add_char buf '\n'
  in
  List.iter (fun c -> emit (class_to_sexp c)) (Kernel.classes kernel);
  emit (concepts_to_sexp (Kernel.concepts kernel));
  List.iter
    (fun p -> emit (process_to_sexp ~block p))
    (Kernel.all_process_versions kernel);
  List.iter (fun c -> emit (objects_to_sexp ~block kernel c)) (Kernel.classes kernel);
  List.iter (fun task -> emit (task_to_sexp ~block task)) (Kernel.tasks kernel);
  emit (cache_stats_to_sexp kernel)

let restore ~block text =
  let* sexps = parse_error (Sexp.of_string_many text) in
  let kernel = Kernel.create () in
  (* compound processes reference their primitive sub-processes, so
     restore processes primitives-first regardless of file order *)
  let* parsed_processes =
    map_m (process_of_sexp ~block)
      (List.filter
         (function Sexp.List (Sexp.Atom "process" :: _) -> true | _ -> false)
         sexps)
  in
  let primitives, compounds =
    List.partition Process.is_primitive parsed_processes
  in
  let* () =
    iter_m
      (fun sexp ->
        match sexp with
        | Sexp.List (Sexp.Atom "class" :: _) ->
          let* c = class_of_sexp sexp in
          Kernel.define_class kernel c
        | Sexp.List (Sexp.Atom "concepts" :: _) -> restore_concepts kernel sexp
        | _ -> Ok ())
      sexps
  in
  let* () = iter_m (Kernel.define_process kernel) (primitives @ compounds) in
  let* () =
    iter_m
      (fun sexp ->
        match sexp with
        | Sexp.List (Sexp.Atom "objects" :: _) ->
          restore_objects ~block kernel sexp
        | Sexp.List (Sexp.Atom "task" :: _) ->
          let* task = task_of_sexp ~block sexp in
          Kernel.restore_task kernel task
        | Sexp.List (Sexp.Atom "cache-stats" :: _) ->
          (* counters survive the round trip; saves predating the
             section simply restore to zero *)
          restore_cache_stats kernel sexp
        | Sexp.List (Sexp.Atom ("class" | "concepts" | "process") :: _) -> Ok ()
        | _ -> Gaea_error.err "unknown section")
      sexps
  in
  Ok kernel

(* --- container -------------------------------------------------------- *)

(* A save file, format version 1, all integers little-endian:
     magic     8 bytes, [magic] below
     version   u32
     metadata  u64 length, then the sections as text
     blocks    u64 count, then per block a u64 length and the raw
               pixels ([Value.write_pixels]); block i is the one an
               image's [(block i)] names
     trailer   the MD5 digest ([Digest]) of every byte before it
   A file that starts with '(' is the text format before the
   container: the same sections with every pixel listed inline. *)
let magic = "\x89GAEA\r\n\x1a"
let version = 1
let digest_len = 16
let header_len = String.length magic + 4
let u64_len = 8

let save kernel =
  let images = ref [] and count = ref 0 in
  let block img =
    images := img :: !images;
    incr count;
    !count - 1
  in
  let meta = Buffer.create 8192 in
  write_metadata ~block meta kernel;
  let images = List.rev !images in
  let meta_len = Buffer.length meta in
  let size =
    List.fold_left
      (fun acc img -> acc + u64_len + Value.pixel_bytes img)
      (header_len + u64_len + meta_len + u64_len + digest_len)
      images
  in
  let b = Bytes.create size in
  let put_u64 pos n = Bytes.set_int64_le b pos (Int64.of_int n) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b (String.length magic) (Int32.of_int version);
  put_u64 header_len meta_len;
  Buffer.blit meta 0 b (header_len + u64_len) meta_len;
  let pos = ref (header_len + u64_len + meta_len) in
  put_u64 !pos !count;
  pos := !pos + u64_len;
  List.iter
    (fun img ->
      let n = Value.pixel_bytes img in
      put_u64 !pos n;
      Value.write_pixels img b (!pos + u64_len);
      pos := !pos + u64_len + n)
    images;
  Bytes.blit_string (Digest.subbytes b 0 !pos) 0 b !pos digest_len;
  Bytes.unsafe_to_string b

let bad check fmt =
  Printf.ksprintf
    (fun detail -> Error (Gaea_error.Bad_save { check; detail }))
    fmt

(* Check magic, version, checksum and every length; return the
   metadata text and the pixel blocks. *)
let open_container s =
  let n = String.length s in
  let body = n - digest_len in
  (* a u64 length field at [pos]: at least 0 and at most [limit] *)
  let length_field what pos limit =
    let v = String.get_int64_le s pos in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int limit) > 0 then
      bad Gaea_error.Length "%s %Ld at byte %d is outside [0, %d]" what v pos
        limit
    else Ok (Int64.to_int v)
  in
  if n < String.length magic then
    if String.starts_with ~prefix:s magic then
      bad Gaea_error.Length "truncated at %d bytes, inside the magic" n
    else bad Gaea_error.Magic "not a Gaea save file"
  else if not (String.starts_with ~prefix:magic s) then
    bad Gaea_error.Magic "not a Gaea save file"
  else if n < header_len then
    bad Gaea_error.Length "truncated at %d bytes, inside the header" n
  else
    let v = Int32.to_int (String.get_int32_le s (String.length magic)) in
    if v <> version then
      bad Gaea_error.Version "format version %d, this build reads %d" v version
    else if body < header_len + (2 * u64_len) then
      bad Gaea_error.Length "truncated at %d bytes, shorter than an empty save" n
    else if not (String.equal (Digest.substring s 0 body)
                   (String.sub s body digest_len))
    then bad Gaea_error.Checksum "trailer digest does not match the contents"
    else
      let meta_off = header_len + u64_len in
      let* meta_len =
        length_field "metadata length" header_len (body - meta_off - u64_len)
      in
      let count_pos = meta_off + meta_len in
      let* count =
        length_field "block count" count_pos
          ((body - count_pos - u64_len) / u64_len)
      in
      let blocks = Array.make count { Value.src = s; off = 0; len = 0 } in
      let rec frame i pos =
        if i = count then
          if pos = body then Ok ()
          else bad Gaea_error.Length "%d bytes after the last block" (body - pos)
        else
          let* len = length_field "block length" pos (body - pos - u64_len) in
          blocks.(i) <- { Value.src = s; off = pos + u64_len; len };
          frame (i + 1) (pos + u64_len + len)
      in
      let* () = frame 0 (count_pos + u64_len) in
      Ok (String.sub s meta_off meta_len, blocks)

let load s =
  if String.length s > 0 && s.[0] = '(' then restore ~block:(fun _ -> None) s
  else
    let* meta, blocks = open_container s in
    restore meta ~block:(fun i ->
        if i >= 0 && i < Array.length blocks then Some blocks.(i) else None)

let save_to_file kernel path =
  let data = save kernel in
  match
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  with
  | exception Sys_error e -> Error (Gaea_error.Io_error e)
  | tmp, oc ->
    (try
       output_string oc data;
       close_out oc;
       Sys.rename tmp path;
       Ok ()
     with Sys_error e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       Error (Gaea_error.Io_error e))

let load_from_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> load (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error (Gaea_error.Io_error e)
