(** Unsupervised classification — the [unsuperclassify()] operator used
    by process P20 (paper Fig 3) to derive LAND_COVER from Landsat TM
    bands.

    Deterministic k-means over per-pixel band vectors: seeded k-means++
    initialization, Lloyd iterations to convergence, stable relabeling of
    clusters (sorted by centroid) so the same inputs always yield the
    same class image.

    {2 Exactness}

    The assignment step skips a pixel's distance scan when distance
    bounds (Hamerly's) prove that its current centroid is still strictly
    the nearest, by more than a rounding tolerance scaled to the data's
    range.  Pruning never changes a label: every pixel that is scanned
    computes [centroid - pixel] per band, summed in band order, and
    takes the first strictly smaller distance (ties go to the lowest
    index), exactly as plain Lloyd does.  Labels, centroids, iteration
    count and inertia are therefore those of plain Lloyd, bit for bit,
    at any pool size.  Pixels or centroids that are not finite switch
    pruning off. *)

type result = {
  labels : Image.t;            (** Int4 label image, values in 0..k-1 *)
  centroids : float array array; (** k centroids of dimension n_bands *)
  iterations : int;            (** Lloyd iterations performed *)
  inertia : float;             (** sum of squared distances to assigned centroid *)
}

val unsuperclassify : ?seed:int -> ?max_iter:int -> Composite.t -> int
  -> result
(** [unsuperclassify composite k] groups pixels into [k] classes.
    @raise Invalid_argument if [k < 1] or [k] exceeds the pixel count. *)

val unsuperclassify_result :
  ?seed:int -> ?max_iter:int -> Composite.t -> int
  -> (result, string) Stdlib.result
(** Non-raising variant for degenerate inputs: [Error] when [k < 1] or
    the composite is empty; when [k] exceeds the pixel count it is
    clamped to it (one cluster per pixel) instead of raising or
    silently seeding duplicate centroids. *)

val assign : float array array -> float array -> int
(** Index of the nearest centroid (ties to the lowest index).
    @raise Invalid_argument on empty centroids. *)
