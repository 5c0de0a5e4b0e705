(* Host and configuration metadata recorded with every result. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let s = In_channel.input_all ic in
    close_in ic;
    Some s

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' s)

let env name = Sys.getenv_opt name

(* [git_commit] and [nproc] come from the launcher ([run.py]), which
   can ask git and the scheduler; both are optional. *)
let fields ~git_commit ~nproc =
  let str = function None -> `Null | Some s -> `String s in
  [ ("git_commit", str git_commit);
    ("nproc", `Int nproc);
    ("recommended_domain_count", `Int (Domain.recommended_domain_count ()));
    ("pool_size", `Int (Gaea_par.Pool.size ()));
    ("ocaml_version", `String Sys.ocaml_version);
    ("cpu_model", str (cpu_model ()));
    ("GAEA_DOMAINS", str (env "GAEA_DOMAINS"));
    ("GAEA_CACHE_BYTES", str (env "GAEA_CACHE_BYTES"));
    ("GAEA_MIN_PAR_WORK", str (env "GAEA_MIN_PAR_WORK")) ]

(* Time of a fixed single-threaded float loop (median of 15), taken
   before set-up and after the run.  Not a metric: it shows how fast
   the host was while the run measured, so drift between runs on a
   shared host can be told apart from a change in the program. *)
let calibration_ms () =
  let loop () =
    let acc = ref 0. in
    for i = 1 to 2_000_000 do
      acc := (!acc *. 0.999_999) +. float_of_int (i land 1023)
    done;
    !acc
  in
  Measure.median
    (List.init 15 (fun _ -> snd (Measure.time (fun () -> ignore (Sys.opaque_identity (loop ()))))))
  |> Option.get
