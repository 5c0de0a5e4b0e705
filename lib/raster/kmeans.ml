module Pool = Gaea_par.Pool

type result = {
  labels : Image.t;
  centroids : float array array;
  iterations : int;
  inertia : float;
}

let sq_dist a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let assign centroids v =
  let k = Array.length centroids in
  if k = 0 then invalid_arg "Kmeans.assign: no centroids";
  let best = ref 0 and best_d = ref (sq_dist centroids.(0) v) in
  for j = 1 to k - 1 do
    let d = sq_dist centroids.(j) v in
    if d < !best_d then begin
      best := j;
      best_d := d
    end
  done;
  !best

(* Points and centroids are flat row-major buffers, [dims] floats a
   row.  [row_dist dims a i b j] is [sq_dist] of row [i] of [a] minus
   row [j] of [b]: the same subtractions, summed in band order from 0,
   so it rounds exactly as [sq_dist a.(i) b.(j)] would. *)
let[@inline] row_dist dims a i b j =
  let oa = i * dims and ob = j * dims in
  let acc = ref 0. in
  for d = 0 to dims - 1 do
    let x = Array.unsafe_get a (oa + d) -. Array.unsafe_get b (ob + d) in
    acc := !acc +. (x *. x)
  done;
  !acc

(* The [n × dims] pixel buffer.  A single band is used in place: its
   backing store already is that buffer, and nothing here writes it. *)
let flat_points composite =
  let n = Composite.n_pixels composite in
  match Composite.bands composite with
  | [ b ] -> Image.unsafe_data b
  | bands ->
    let dims = List.length bands in
    let points = Array.create_float (n * dims) in
    List.iteri
      (fun d b ->
        let data = Image.unsafe_data b in
        for i = 0 to n - 1 do
          Array.unsafe_set points ((i * dims) + d) (Array.unsafe_get data i)
        done)
      bands;
    points

(* k-means++ seeding with the module's deterministic RNG *)
let seed_centroids rng ~dims points n k =
  if n = 0 then invalid_arg "Kmeans.seed_centroids: empty point set";
  if k > n then
    invalid_arg
      (Printf.sprintf "Kmeans.seed_centroids: k=%d > %d points" k n);
  let cs = Array.create_float (k * dims) in
  let take j i = Array.blit points (i * dims) cs (j * dims) dims in
  take 0 (Rng.int rng n);
  let dists = Array.init n (fun i -> row_dist dims points i cs 0) in
  for j = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0. dists in
    let chosen =
      if total <= 0. then Rng.int rng n
      else begin
        let target = Rng.float rng total in
        let acc = ref 0. and idx = ref (n - 1) in
        (try
           Array.iteri
             (fun i d ->
               acc := !acc +. d;
               if !acc >= target then begin
                 idx := i;
                 raise Exit
               end)
             dists
         with Exit -> ());
        !idx
      end
    in
    take j chosen;
    for i = 0 to n - 1 do
      dists.(i) <- Float.min dists.(i) (row_dist dims points i cs j)
    done
  done;
  cs

(* Rounding tolerance of the pruning tests (see [run]).  Every
   distance, bound and drift that decides a skip is at most [diag], the
   diagonal of the box holding every pixel and every centroid so far,
   and each is within a few ulps of [diag] per operation of its exact
   value: [dims + 1] roundings in a squared distance, a few more in its
   square root, one per iteration in a bound that collects drifts.
   [4 (dims + iteration + 4)] ulps of [diag] covers all of them with a
   factor of two to spare.  It is absolute, not a fraction of the
   bound: [lower -= drift], repeated, cancels towards zero while its
   error does not shrink.  Outside [2^-400, 2^400] squares can underflow
   or overflow, so pruning is off there: the tolerance is infinite. *)
let tolerance ~dims ~iteration diag =
  if diag >= 0x1p-400 && diag <= 0x1p400 then
    diag *. float_of_int (4 * (dims + iteration + 4)) *. epsilon_float
  else infinity

(* Lloyd iterations, parallel over pixels, with Hamerly's bounds
   ("Making k-means even faster", SDM 2010) to skip distance scans.

   Every pixel keeps [upper], at least its distance to its own centroid,
   and [lower], at most its distance to any other centroid; [half.(j)]
   is half the distance from centroid [j] to its nearest other
   centroid.  After an update step the bounds are moved by how far each
   centroid drifted, inside the next assignment pass.  A pixel skips
   the k-distance scan when [upper + tol < max half.(a) lower]: then its
   centroid [a] is nearer than any other by more than rounding can
   blur, so the scan would return [a] again, strictly.  Every other
   pixel runs the plain scan — [centroid - pixel] per band, strict [<],
   ties to the lowest index — so labels, centroids, iteration count and
   inertia are those of plain Lloyd, bit for bit.  No pixel skips in
   the first pass, when any pixel or centroid is not finite, or when
   the tolerance is infinite.

   The assignment step writes disjoint label and bound cells; the
   update step accumulates per-chunk partial (sum, count) pairs
   combined in chunk order, so the result is bit-identical at any pool
   size. *)
let run ~seed ~max_iter composite k =
  let n = Composite.n_pixels composite in
  let dims = Composite.n_bands composite in
  let points = flat_points composite in
  (* cost hints below: per-pixel work relative to one float add, so the
     pool's adaptive cutoff still engages for these expensive kernels
     at sizes where a plain subtraction would stay sequential *)
  let fdims = float_of_int dims in
  let rng = Rng.create seed in
  let cs = ref (seed_centroids rng ~dims points n k) in
  let labels = Array.make n 0 in
  let upper = Array.create_float n and lower = Array.create_float n in
  let half = Array.make k infinity and drift = Array.make k 0. in
  (* bounding box of every pixel and every centroid so far *)
  let bmin = Array.make dims infinity and bmax = Array.make dims neg_infinity in
  let finite = ref true in
  let extend buf =
    Array.iteri
      (fun x v ->
        let d = x mod dims in
        if Float.is_finite v then begin
          if v < bmin.(d) then bmin.(d) <- v;
          if v > bmax.(d) then bmax.(d) <- v
        end
        else finite := false)
      buf
  in
  extend points;
  let diag () =
    let acc = ref 0. in
    for d = 0 to dims - 1 do
      let w = bmax.(d) -. bmin.(d) in
      acc := !acc +. (w *. w)
    done;
    sqrt !acc
  in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed && !iterations < max_iter do
    incr iterations;
    let c = !cs in
    let tol =
      if !iterations = 1 || not !finite then infinity
      else tolerance ~dims ~iteration:!iterations (diag ())
    in
    let prune = tol < infinity in
    (* Drifts of the last update: the largest, its centroid, and the
       largest of the others. *)
    let far = ref 0 and far_d = ref 0. and next_d = ref 0. in
    if prune then begin
      for j = 0 to k - 1 do
        let p = drift.(j) in
        if p > !far_d then begin
          next_d := !far_d;
          far := j;
          far_d := p
        end
        else if p > !next_d then next_d := p
      done;
      for j = 0 to k - 1 do
        let m = ref infinity in
        for j' = 0 to k - 1 do
          if j' <> j then m := Float.min !m (row_dist dims c j c j')
        done;
        half.(j) <- 0.5 *. sqrt !m
      done
    end;
    let far = !far and far_d = !far_d and next_d = !next_d in
    (* assignment step *)
    changed :=
      Pool.parallel_for_reduce
        ~cost:(3. *. float_of_int k *. fdims)
        ~lo:0 ~hi:n ~init:false ~reduce:( || )
        (fun clo chi ->
          let any = ref false in
          for i = clo to chi - 1 do
            let a = Array.unsafe_get labels i in
            let skip =
              prune
              && begin
                let u = Array.unsafe_get upper i +. Array.unsafe_get drift a in
                let l =
                  Array.unsafe_get lower i -. if a = far then next_d else far_d
                in
                Array.unsafe_set lower i l;
                let h = Array.unsafe_get half a in
                let m = (if h > l then h else l) -. tol in
                (* too loose: tighten [upper] to the exact distance *)
                let u = if u < m then u else sqrt (row_dist dims c a points i) in
                Array.unsafe_set upper i u;
                u < m
              end
            in
            if not skip then begin
              let best = ref 0 and best_d = ref (row_dist dims c 0 points i) in
              let second = ref infinity in
              for j = 1 to k - 1 do
                let d = row_dist dims c j points i in
                if d < !best_d then begin
                  second := !best_d;
                  best := j;
                  best_d := d
                end
                else if d < !second then second := d
              done;
              Array.unsafe_set upper i (sqrt !best_d);
              Array.unsafe_set lower i (sqrt !second);
              if !best <> a then begin
                Array.unsafe_set labels i !best;
                any := true
              end
            end
          done;
          !any);
    (* update step; empty clusters keep their previous centroid *)
    if !changed then begin
      let partials =
        Pool.map_chunks ~cost:(2. *. fdims) ~lo:0 ~hi:n (fun clo chi ->
            let sums = Array.make (k * dims) 0. in
            let counts = Array.make k 0 in
            for i = clo to chi - 1 do
              let j = labels.(i) in
              counts.(j) <- counts.(j) + 1;
              for d = 0 to dims - 1 do
                let s = (j * dims) + d in
                sums.(s) <- sums.(s) +. points.((i * dims) + d)
              done
            done;
            (sums, counts))
      in
      let sums = Array.make (k * dims) 0. in
      let counts = Array.make k 0 in
      Array.iter
        (fun (ps, pc) ->
          for j = 0 to k - 1 do
            counts.(j) <- counts.(j) + pc.(j)
          done;
          Array.iteri (fun s v -> sums.(s) <- sums.(s) +. v) ps)
        partials;
      let next = Array.copy c in
      for j = 0 to k - 1 do
        if counts.(j) > 0 then begin
          let cnt = float_of_int counts.(j) in
          for d = 0 to dims - 1 do
            next.((j * dims) + d) <- sums.((j * dims) + d) /. cnt
          done
        end;
        drift.(j) <- sqrt (row_dist dims next j c j)
      done;
      extend next;
      cs := next
    end
  done;
  let c = !cs in
  let centroids = Array.init k (fun j -> Array.sub c (j * dims) dims) in
  (* Stable relabeling: order clusters lexicographically by centroid so
     output labels are independent of initialization order. *)
  let order = Array.init k (fun j -> j) in
  Array.sort (fun a b -> compare centroids.(a) centroids.(b)) order;
  let rank = Array.make k 0 in
  Array.iteri (fun r j -> rank.(j) <- r) order;
  let final_centroids = Array.map (fun j -> centroids.(j)) order in
  let inertia =
    Pool.parallel_for_reduce ~cost:(3. *. fdims) ~lo:0 ~hi:n ~init:0.
      ~reduce:( +. )
      (fun clo chi ->
        let acc = ref 0. in
        for i = clo to chi - 1 do
          acc := !acc +. row_dist dims points i c labels.(i)
        done;
        !acc)
  in
  let nrow = Composite.nrow composite and ncol = Composite.ncol composite in
  let label_img =
    Image.par_init ~label:"unsuperclassify" ~nrow ~ncol Pixel.Int4 (fun r c ->
        float_of_int rank.(labels.((r * ncol) + c)))
  in
  { labels = label_img;
    centroids = final_centroids;
    iterations = !iterations;
    inertia }

let unsuperclassify_result ?(seed = 42) ?(max_iter = 100) composite k =
  let n = Composite.n_pixels composite in
  if k < 1 then Error (Printf.sprintf "Kmeans: k=%d < 1" k)
  else if n = 0 then Error "Kmeans: composite has no pixels"
  else begin
    (* more clusters than pixels degenerates to one cluster per pixel *)
    let k = Stdlib.min k n in
    Ok (run ~seed ~max_iter composite k)
  end

let unsuperclassify ?(seed = 42) ?(max_iter = 100) composite k =
  let n = Composite.n_pixels composite in
  if k < 1 then invalid_arg "Kmeans.unsuperclassify: k < 1";
  if k > n then
    invalid_arg
      (Printf.sprintf "Kmeans.unsuperclassify: k=%d > %d pixels" k n);
  run ~seed ~max_iter composite k
