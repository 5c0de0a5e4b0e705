(** Tasks (paper Section 2.1.2): "the instantiation of a process with
    input data objects [...] recorded as a relationship among instances
    of non-primitive classes" — the provenance record of every derived
    object.  Its save-file encoding lives in {!Persist}, beside the
    other sections of a saved kernel. *)

type t = {
  task_id : int;
  process : string;
  process_version : int;
  inputs : (string * Gaea_storage.Oid.t list) list;
  (** per process argument, the input object OIDs *)
  params : (string * Gaea_adt.Value.t) list;
  (** parameter values in force (copied from the process) *)
  outputs : Gaea_storage.Oid.t list;
  output_class : string;
  clock : int;
  (** logical timestamp (kernel-wide, monotone) *)
}

val input_oids : t -> Gaea_storage.Oid.t list
(** All inputs, flattened, sorted, deduplicated. *)

val pp : Format.formatter -> t -> unit
