(** Table statistics for the cost-based optimizer of the query layer. *)

type column_stats = {
  attr : string;
  n_distinct : int;
  n_null : int;          (** always 0 today; kept for schema evolution *)
  min_value : Gaea_adt.Value.t option;   (** orderable attributes only *)
  max_value : Gaea_adt.Value.t option;
}

type table_stats = {
  table : string;
  n_rows : int;
  columns : column_stats list;
}

val analyze_table : Table.t -> table_stats
(** Exact single-pass statistics (the store is in-memory; sampling would
    buy nothing). *)

val selectivity_eq : table_stats -> string -> float
(** Estimated fraction of rows matching an equality predicate:
    [1 / n_distinct], defaulting to 0.1 for unknown attributes. *)
