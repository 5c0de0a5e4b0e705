(** A table: rows by OID + secondary indexes + schema.

    This is the storage role Postgres plays for Gaea: each non-primitive
    class is backed by one table whose attributes hold primitive-class
    values.  Rows live in one OID-keyed map; a deleted row is removed,
    so its tuple can be collected.  Scans run in ascending OID order. *)

type t

val create : name:string -> Tuple.descriptor -> t
val name : t -> string
val descriptor : t -> Tuple.descriptor
val row_count : t -> int
(** Live rows, O(1). *)

val create_hash_index : t -> string -> (unit, string) result
(** Index an attribute for equality lookup; backfills existing rows.
    Errors on unknown attribute or duplicate index. *)

val create_btree_index : t -> string -> (unit, string) result
(** Ordered index; errors additionally on non-orderable types. *)

val has_hash_index : t -> string -> bool
val has_btree_index : t -> string -> bool

val insert : t -> Oid.t -> Gaea_adt.Value.t list -> (unit, string) result
(** Builds and type-checks a tuple, stores it, maintains indexes.
    Errors on a type mismatch or an OID already present. *)

val replace : t -> Oid.t -> Gaea_adt.Value.t list -> (unit, string) result
(** Overwrite a live row in place (same OID), re-maintaining indexes.
    Errors on an absent OID or a tuple type mismatch. *)

val delete : t -> Oid.t -> bool
(** Removes the row and its index entries; true if the OID was live. *)

val get : t -> Oid.t -> Tuple.t option
val get_attr : t -> Oid.t -> string -> Gaea_adt.Value.t option

val scan : t -> (Oid.t -> Tuple.t -> unit) -> unit
(** Live rows in ascending OID order. *)

val fold : t -> init:'a -> f:('a -> Oid.t -> Tuple.t -> 'a) -> 'a

val select : t -> (Oid.t -> Tuple.t -> bool) -> (Oid.t * Tuple.t) list

val lookup_eq : t -> string -> Gaea_adt.Value.t -> (Oid.t * Tuple.t) list
(** Equality retrieval; uses a btree index (it compares as {!Vorder}
    does, so an int probe finds float keys), else a hash index, else
    scans.  Unknown attribute yields []. *)

val lookup_range :
  t -> string -> ?lo:Gaea_adt.Value.t -> ?hi:Gaea_adt.Value.t -> unit
  -> (Oid.t * Tuple.t) list
(** Range retrieval on an orderable attribute (btree or scan). *)

val last_access_used_index : t -> bool
(** Whether the most recent [lookup_eq]/[lookup_range] was served by an
    index — exposed for the experiments. *)
