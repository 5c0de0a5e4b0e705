(** Whole-kernel persistence — the data-{e sharing} story of the paper.

    A saved kernel carries everything needed for another scientist to
    re-derive and verify every result: class definitions, the concept
    hierarchy, every process {e version} (templates included — the
    derivation procedures themselves travel with the data), the task
    log, and all stored objects.  The file is one binary container: a
    header (magic and format version), the metadata as S-expressions,
    the image pixels as raw little-endian blocks at storage width, and
    a trailer holding an MD5 digest of everything before it.  The only
    thing not carried is the operator registry, which is code (both
    sides must run the same Gaea build — the paper's "processes that
    are not locally available" are listed as future work, and ours
    too). *)

val save : Kernel.t -> string

val load : string -> (Kernel.t, Gaea_error.t) result
(** Rebuilds a fresh kernel (built-in registry) and replays the saved
    metadata and data.  After loading, every saved task must verify:
    [Lineage.verify_object] on any object reproduces it exactly.

    Before restoring anything it checks the magic, the version, the
    checksum and every length; a failure is [Bad_save] naming the
    check, so an empty, truncated or corrupted file is an [Error].
    Input starting with ['('] is the text format that predates the
    container (pixels as [%h] atoms) and still loads; it has no
    trailer, so a text file cut at a line boundary loads short. *)

val save_to_file : Kernel.t -> string -> (unit, Gaea_error.t) result
(** Writes a temp file in the target's directory, then renames it over
    the target, so the previous file survives a failed save.  On
    failure the temp file is removed and the result is [Io_error]. *)

val load_from_file : string -> (Kernel.t, Gaea_error.t) result
