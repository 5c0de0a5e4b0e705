(** Total ordering over the scalar value types — the key order of the
    ordered index and the ORDER BY of the query layer. *)

val orderable : Gaea_adt.Vtype.t -> bool
(** True for int, float, string, bool, abstime. *)

val comparable : Gaea_adt.Vtype.t -> Gaea_adt.Vtype.t -> bool
(** Whether {!compare} orders values of these two types: the same
    orderable type, or int with float. *)

val compare : Gaea_adt.Value.t -> Gaea_adt.Value.t -> (int, string) result
(** Errors on non-orderable or differently-typed operands (ints and
    floats compare numerically with each other). *)

val compare_exn : Gaea_adt.Value.t -> Gaea_adt.Value.t -> int
(** @raise Invalid_argument where {!compare} errors. *)
