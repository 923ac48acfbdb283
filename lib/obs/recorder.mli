(** Flight recorder: deterministic checkpoints, crash dumps and run
    manifests.

    A {e checkpoint} is a versioned, self-describing snapshot of a
    simulation's mutable state: an ordered metadata dictionary (enough
    for [limpetmlir replay] to rebuild the exact run), the step index
    and simulation clock, and a set of named float buffers serialized as
    {e exact Int64 bit patterns} — [-0.0], NaN payloads and every
    subnormal survive a round trip unchanged.  An MD5 content digest
    over those bit patterns (the PR 6 canonicalization discipline) makes
    corruption detectable and lets two runs be compared for bitwise
    equality by digest alone.

    The recorder is deliberately generic: it knows nothing about
    drivers, kernels or tissue.  [Sim.Driver] and [Tissue.Monodomain]
    capture themselves into checkpoints; this module owns the format,
    the periodic {!writer} (stride + keep-last-K rotation), the
    {!crash_dump} bundle and the run {!write_manifest}. *)

type section = {
  sec_name : string;  (** buffer identity, e.g. ["sv"], ["ext:Vm"] *)
  sec_data : floatarray;
}

type checkpoint = {
  ck_meta : (string * string) list;
      (** ordered; keys are space-free, values may contain spaces *)
  ck_step : int;  (** steps completed when the snapshot was taken *)
  ck_time : float;  (** simulation clock, ms (bit-exact round trip) *)
  ck_sections : section list;
}

val version : int
(** Format version written by {!to_string} (currently 1). *)

val hex_of_float : float -> string
(** The 16 hex digits of a float's [Int64] bit pattern: how the format
    writes every float, metadata values included. *)

val float_of_hex : string -> float option
(** Inverse of {!hex_of_float}; [None] unless given 16 hex digits. *)

val meta : checkpoint -> string -> string option
(** First binding of a metadata key. *)

val set_meta : checkpoint -> string -> string -> checkpoint
(** Replace (or append) one metadata binding, preserving order. *)

val digest : checkpoint -> string
(** MD5 hex over the step index, the clock's Int64 bits and every
    section's name and Int64 float bit patterns, in order.  Metadata is
    {e not} digested: two runs reaching the same state through different
    configurations compare equal. *)

val to_string : checkpoint -> string
(** The self-describing text serialization (magic + version line,
    [meta] lines, [section] blocks of 16-hex-digit bit patterns, and a
    trailing [digest] line). *)

val of_string : string -> (checkpoint, Easyml.Diag.t) result
(** Parse and verify a serialization.  Every failure — bad magic,
    unsupported version, malformed line, bad hex token, truncated
    section, missing or mismatching digest — is a structured
    [Easyml.Diag] error ([checkpoint-format] / [checkpoint-digest]),
    never an exception. *)

val write : path:string -> checkpoint -> int
(** Serialize to [path] atomically (temp file + rename); returns the
    byte count written. *)

val read : string -> (checkpoint, Easyml.Diag.t) result
(** {!of_string} on a file's contents; I/O failures become
    [checkpoint-io] diagnostics. *)

(** {2 Periodic writer} *)

type writer
(** Writes checkpoints under one run directory at a fixed step stride,
    rotating old files out (keep the last K), verifying each write by
    re-reading it, and accumulating the statistics behind the
    [limpetmlir_checkpoint_*] Prometheus families. *)

val create_writer :
  ?keep:int ->
  ?extra:(string * string) list ->
  dir:string ->
  stride:int ->
  unit ->
  writer
(** [keep] (default 3) bounds the retained files; every write is
    re-read and digest failures are counted; [extra] is metadata merged
    into every recorded checkpoint (run-level facts the captured object
    does not know: total steps, stimulus protocol, CLI configuration).  Creates [dir] if needed.
    @raise Invalid_argument when [stride <= 0] or [keep <= 0]. *)

val due : writer -> step:int -> bool
(** True when [step] is a positive multiple of the stride. *)

val record : writer -> checkpoint -> string
(** Merge the writer's [extra] metadata, write
    [dir/checkpoint-<step>.ckpt], verify, rotate; returns the path. *)

val last : writer -> string option
(** Path of the most recent retained checkpoint. *)

val writer_dir : writer -> string

val stats : writer -> Export.checkpoint_stats
(** Cumulative counters for the Prometheus exposition. *)

(** {2 Crash dumps and manifests} *)

val crash_dump :
  dir:string ->
  ?last_checkpoint:string ->
  ?events:Tracer.event list ->
  ?health:string ->
  report:Json.t ->
  unit ->
  string
(** Bundle a post-mortem under [dir/crash/]: the structured abort
    report ([report.json]), the ring-buffer tail of recent trace events
    ([trace_tail.json]), the health snapshot text ([health.txt]) and a
    copy of the last on-disk checkpoint.  Best-effort: a failing copy
    never raises.  Returns the bundle directory. *)

val write_manifest : dir:string -> Json.t -> string
(** Write [dir/manifest.json] (pretty enough for operators, parseable
    by tools); returns the path. *)
