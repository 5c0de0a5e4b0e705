module Gaea_error = Gaea_core.Gaea_error
module Value = Gaea_adt.Value
module Kernel = Gaea_core.Kernel
module Concept = Gaea_core.Concept
module Derivation = Gaea_core.Derivation
module Schema = Gaea_core.Schema
module Table = Gaea_storage.Table
module Stats = Gaea_storage.Stats
module Tuple = Gaea_storage.Tuple
module Vorder = Gaea_storage.Vorder
module Backchain = Gaea_petri.Backchain
module Abstime = Gaea_geo.Abstime
module Box = Gaea_geo.Box

let literal_value = function
  | Ast.L_int i -> Value.int i
  | Ast.L_float f -> Value.float f
  | Ast.L_string s -> Value.string s
  | Ast.L_bool b -> Value.bool b
  | Ast.L_date (y, m, d) -> Value.abstime (Abstime.of_ymd y m d)
  | Ast.L_box (xmin, ymin, xmax, ymax) ->
    Value.box (Box.make ~xmin ~ymin ~xmax ~ymax)

let resolve_source k source =
  match Kernel.find_class k source with
  | Some _ -> Ok [ source ]
  | None ->
    let concepts = Kernel.concepts k in
    if Concept.mem concepts source then begin
      match Concept.classes_of concepts source with
      | [] -> Gaea_error.err (Printf.sprintf "concept %s has no member classes" source)
      | classes -> Ok classes
    end
    else Gaea_error.err (Printf.sprintf "unknown class or concept %s" source)

(* Whether [tab]'s indexes on [attr] answer a predicate with literal [v]
   exactly as the residual check would.  The btree orders keys as
   Vorder.compare does, so it serves any literal Vorder orders against
   the attribute's type (ints and floats mix); a hash index matches by
   Value.equal, so it serves only literals of the attribute's own type.
   Any other predicate is left to the scan, whose answer is the
   residual's by construction. *)
let btree_serves tab attr v =
  Table.has_btree_index tab attr
  && match Tuple.attr_type (Table.descriptor tab) attr with
     | Some ty -> Vorder.comparable ty (Value.type_of v)
     | None -> false

let hash_serves tab attr v =
  Table.has_hash_index tab attr
  && Tuple.attr_type (Table.descriptor tab) attr = Some (Value.type_of v)

(* pick the best indexable predicate on the (first) class *)
let choose_path k cls preds =
  match Kernel.class_table k cls with
  | None -> (Plan.Full_scan, preds, 1.0)
  | Some tab ->
    let stats = Stats.analyze_table tab in
    let candidates =
      List.filter_map
        (fun pred ->
          match pred with
          | Ast.P_compare (attr, cmp, lit) ->
            let v = literal_value lit in
            (match cmp with
             | Ast.C_eq when btree_serves tab attr v || hash_serves tab attr v ->
               Some (pred, Plan.Index_eq (attr, v), Stats.selectivity_eq stats attr)
             | (Ast.C_lt | Ast.C_le) when btree_serves tab attr v ->
               Some (pred, Plan.Index_range (attr, None, Some v), 0.3)
             | (Ast.C_gt | Ast.C_ge) when btree_serves tab attr v ->
               Some (pred, Plan.Index_range (attr, Some v, None), 0.3)
             | _ -> None)
          | Ast.P_at (attr, lit) ->
            (* same-day window *)
            (match literal_value lit with
             | Value.VAbstime t as v when btree_serves tab attr v ->
               Some
                 ( pred,
                   Plan.Index_range
                     ( attr,
                       Some (Value.abstime (Abstime.add_days t (-1))),
                       Some (Value.abstime (Abstime.add_days t 1)) ),
                   0.1 )
             | _ -> None)
          | _ -> None)
        preds
    in
    (match
       List.sort (fun (_, _, s1) (_, _, s2) -> Float.compare s1 s2) candidates
     with
     | (chosen, path, sel) :: _ ->
       (* index ranges are closed: a strict bound is re-checked per row *)
       let strict = function
         | Ast.P_compare (_, (Ast.C_lt | Ast.C_gt), _) -> true
         | _ -> false
       in
       let residual = List.filter (fun p -> p != chosen || strict p) preds in
       (path, residual, sel)
     | [] -> (Plan.Full_scan, preds, 1.0))

let plan_select k (s : Ast.select) =
  match resolve_source k s.Ast.source with
  | Error _ as e -> e
  | Ok classes ->
    let first = List.hd classes in
    let path, residual, sel = choose_path k first s.Ast.where_ in
    let total_rows =
      List.fold_left
        (fun acc cls -> acc + Kernel.count_objects k cls)
        0 classes
    in
    let est_rows = float_of_int total_rows *. sel in
    let est_cost =
      match path with
      | Plan.Full_scan -> float_of_int total_rows
      | Plan.Index_eq _ | Plan.Index_range _ ->
        (* index probe + qualifying rows; other classes still scan *)
        est_rows +. 1.
        +. float_of_int (total_rows - Kernel.count_objects k first)
    in
    Ok { Plan.classes; path; residual; est_rows; est_cost }

let count_snapshots k cls =
  match Kernel.find_class k cls with
  | Some def ->
    (match def.Schema.temporal_attr with
     | Some tattr ->
       List.length
         (List.filter_map
            (fun oid ->
              match Kernel.object_attr k ~cls oid tattr with
              | Some (Value.VAbstime t) -> Some t
              | _ -> None)
            (Kernel.objects_of_class k cls)
          |> List.sort_uniq Abstime.compare)
     | None -> 0)
  | None -> 0

let plan_materialize k ?(need = 1) ?at cls =
  match Kernel.find_class k cls with
  | None -> Plan.Impossible (Printf.sprintf "unknown class %s" cls)
  | Some _ ->
    let stored = Kernel.count_objects k cls in
    if stored >= need && at = None then Plan.Stored stored
    else begin
      let interpolation =
        match at with
        | Some _ ->
          let snaps = count_snapshots k cls in
          if snaps >= 2 then Some (Plan.Interpolate { snapshots = snaps })
          else None
        | None -> None
      in
      match interpolation with
      | Some p -> p
      | None ->
        (match Derivation.derivation_plan k ~need cls with
         | Some plan ->
           Plan.Derive
             { firings = Backchain.cost plan; depth = Backchain.depth plan }
         | None ->
           if stored >= need then Plan.Stored stored
           else
             Plan.Impossible
               (Printf.sprintf "%s not derivable from current data" cls))
    end
