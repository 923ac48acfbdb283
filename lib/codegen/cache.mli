(** Shared kernel-compile cache: one process-wide, mutex-guarded memo
    table for the parse → analyze → codegen → optimize → verify front
    half, keyed on model name × {!Config.describe} × pass-pipeline id.
    Cached kernels are immutable; sharing one {!Kernel.t} between callers
    (or domains) is safe because engines allocate their own register
    files per compile. *)

type stats = {
  hits : int;
  misses : int;
  compile_ms : float;  (** total milliseconds spent on cache misses *)
  spec_misses : int;
      (** always 0: kept, with {!specialize}, for callers written when
          kernels were partially evaluated per run *)
  native_hits : int;  (** shared objects served from this process's table *)
  native_misses : int;
      (** shared objects this process had to obtain: C emissions, each
          followed by a store load or a toolchain invocation *)
  native_disk_hits : int;
      (** the subset of [native_misses] loaded from the on-disk store
          without running the C compiler *)
  cc_ms : float;  (** total milliseconds inside the C compiler *)
}

val pipeline_id : string
(** Identity of {!Passes.Pipeline.standard} (pass names, in order);
    part of every cache key. *)

(** {2 Translation validation}

    When enabled ({!set_validation}), every pipeline run behind this
    cache proves each pass application semantics-preserving with
    {!Analysis.Transval.check_module}.  Certificates are recorded per
    cache key, so cached kernels carry their proof provenance. *)

exception Validation_failed of Analysis.Transval.cert
(** Raised from {!generate}/{!generate_named} when a pass
    application is refuted.  The certificate (including its
    counterexample) is recorded before the raise. *)

val set_validation : bool -> unit

val certificates : unit -> (string * Analysis.Transval.cert list) list
(** All recorded certificates, by cache key (sorted), each key's
    certificates in pipeline order.  Cleared by {!clear}. *)

val generate_named :
  ?optimize:bool -> Config.t -> name:string -> (unit -> Easyml.Model.t) -> Kernel.t
(** Cached kernel for [name] under the config; [parse] runs only on a
    miss.  The generated module is verified on the miss.
    @raise Ir.Verifier errors if the generated module is malformed. *)

val generate : ?optimize:bool -> Config.t -> Easyml.Model.t -> Kernel.t
(** {!generate_named} for an already-analyzed model, keyed on its name. *)

val specialize : Kernel.t -> dt:float -> ncells_pad:int -> Kernel.t
(** The kernel itself.  Kept, with [stats.spec_misses], for callers
    written when kernels were partially evaluated over [dt] and the
    padded cell count; both are kernel arguments now. *)

val native :
  Kernel.t ->
  (string -> Exec.Rt.v array -> Exec.Rt.v array, Easyml.Diag.t) result
(** Machine-code artifact for a kernel.  The process-wide table in
    front is keyed on the IR content digest × compiler identity × flags,
    so identical content shares one library and a changed pipeline or
    config can never serve a stale one: one library per model × config,
    whatever the run's [dt] or cell count.  On a miss the kernel is
    emitted as C with {!C_backend.emit_module} and handed to
    [Exec.Native.compile], which loads it from the persistent on-disk
    store when an earlier process already compiled that exact
    translation unit, and otherwise runs the probed system toolchain and
    publishes the result.  [Ok lookup]
    returns a fresh binding per call (each driver thread gets private
    marshalling buffers); [Error diag] covers every failure mode — no
    toolchain, IR without a C lowering, compiler failure, an unwritable
    artifact directory — so callers degrade to an OCaml engine rather
    than crash.  Libraries are never dlclosed (bound closures hold raw
    function pointers), and survive {!clear}. *)

(** Where a native library came from. *)
type native_artifact =
  | Memory  (** already loaded by this process *)
  | Disk  (** loaded from the on-disk store, no compiler run *)
  | Compiled of float  (** the C compiler ran, for this many wall ms *)

val artifact_name : native_artifact -> string
(** ["memory"], ["disk"] or ["compiled"]. *)

val native_artifact : Kernel.t -> native_artifact option
(** How the latest {!native} request for this kernel was served; [None]
    when it has no loaded library. *)

val stats : unit -> stats
val reset_stats : unit -> unit

val clear : unit -> unit
(** Drop all entries and zero the statistics. *)

val describe_stats : unit -> string
(** One-line [cache: H hits / M misses / C ms compiling] summary, with
    a native segment that counts disk hits among its misses. *)
