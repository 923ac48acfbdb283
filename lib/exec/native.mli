(** Native kernel execution: compile emitted C with the system toolchain
    at runtime, [dlopen] the shared object and call into it.

    This module is deliberately IR/codegen-agnostic — it ships source
    text to a C compiler and marshals {!Rt.v} argument vectors to the
    packed kernel ABI

    {[ void <symbol>(const int64_t *ia, const double *fa,
                     double *const *ma) ]}

    where int-like scalar parameters are packed into [ia], float scalars
    into [fa] and memrefs (as raw [floatarray] data pointers) into [ma],
    each class in declaration order.  [Codegen.C_backend] emits wrappers
    with exactly this convention.

    Toolchain discovery runs once per process: [$LIMPET_CC] if set (an
    explicit override that does {i not} fall back to other compilers
    when it names nothing executable), otherwise the first of [cc],
    [gcc], [clang] on [$PATH].

    {b The kernel store.}  Compiled libraries persist across processes
    in a content-addressed store at [$XDG_CACHE_HOME/limpetmlir/native]
    (else [$HOME/.cache/limpetmlir/native]).  An entry's key is the MD5
    of the exact translation unit, the compiler identity and {!flags_id},
    so a changed emitter, compiler or flag set never serves an old
    library.  A compile runs into a uniquely named temporary inside the
    store and is published by [rename] (digest record first, library
    last); a load checks the library's bytes against the recorded digest
    before [dlopen], and deletes and recompiles anything missing, short,
    altered or unloadable.  The store holds at most {!capacity} entries,
    evicting the least recently used (by mtime; a load touches its entry)
    whenever something is published.  Its directories are created 0700
    and used only when owned by this uid and not group- or
    world-writable; otherwise, or when the store cannot be created, the
    store falls back to a per-process temp directory removed at exit
    (with one [native-cache-unsafe] warning in the unsafe case). *)

type toolchain = {
  cc : string;  (** resolved compiler path *)
  id : string;  (** identity for cache keys: path + version line *)
}

type lib
(** A loaded shared object. *)

(** How {!compile} obtained a library. *)
type origin =
  | Disk  (** loaded from a verified store entry *)
  | Compiled of float  (** the C compiler ran, for this many wall ms *)

val libm_calls : string list
(** The libm functions a kernel may call whose glibc results are not
    exactly specified: [exp expm1 log log1p log10 log2 cbrt sin cos tan
    tanh sinh cosh asin acos atan pow atan2 hypot]. *)

val isa_flag : string option
(** The flag for the widest vector ISA this host runs, from one CPUID
    probe at start-up: [-mavx512f], else [-mavx2], else [None] (always
    [None] off x86-64). *)

val flags : string list
(** Compilation flags: [-O3 -shared -fPIC -ffp-contract=off
    -fno-fast-math], then [-fno-builtin-<f>] for each of {!libm_calls},
    then {!isa_flag} if any.  The middle ones are load-bearing: they
    forbid FMA contraction, value-unsafe rewrites and compile-time
    evaluation of those calls (cc would use correctly-rounded MPFR, not
    glibc), keeping native trajectories bitwise-comparable to the OCaml
    engines.  The ISA flag lets cc map the kernel's vector values onto
    the host's vector registers; it changes no result. *)

val flags_id : string
(** The flags as one string (cache-key component): store keys, the
    provenance banner and [emit -c] follow the host's ISA, so a store
    shared between hosts never serves a kernel built for another. *)

exception
  Compile_error of { cc : string; file : string; status : int; log : string }
(** The toolchain rejected the source ([status] <> 0, [log] = captured
    stderr) or the produced object failed to load ([status] = 0, [log] =
    dlerror).  [file] is the failed translation unit, kept (with its
    log) as an entry of the store, so it outlives the process whenever
    the store is persistent. *)

val toolchain : unit -> toolchain option
(** The probed (memoized) toolchain, [None] when no C compiler was
    found. *)

val available : unit -> bool
(** [toolchain () <> None]. *)

val with_toolchain : toolchain option -> (unit -> 'a) -> 'a
(** Run [f] with the probe result forced to the given value (tests:
    simulate a missing or broken toolchain); restores on exit. *)

val with_store : string option -> (unit -> 'a) -> 'a
(** Run [f] with the store forced to the directory [Some d] (created
    0700 if missing, subject to the same ownership check) or to this
    process's temp directory ([None]); restores on exit.  Tests use it
    to keep their compiles out of the user's cache. *)

val capacity : int
(** The most entries the store keeps (256). *)

val compile : toolchain -> src:string -> lib * origin
(** The library for [src] under {!flags}: loaded from the store when an
    intact entry exists, otherwise compiled, loaded and published.  A
    store that fails mid-way (removed, full) falls back to the
    per-process directory.
    @raise Compile_error on toolchain or loader failure. *)

val bind :
  lib -> symbol:string -> params:Ir.Ty.t list -> Rt.v array -> Rt.v array
(** Resolve [symbol] and return a caller marshalling {!Rt.v} argument
    vectors (matching [params], which must be scalar/memref only) to the
    packed ABI.  The returned closure reuses preallocated marshalling
    buffers, so it is not reentrant — obtain one closure per thread,
    as the driver does for every engine.  Kernels return nothing; the
    result is always [[||]].
    @raise Failure if the symbol is missing.
    @raise Invalid_argument on vector parameters or argument mismatch. *)

val so_path : lib -> string
(** Where the library was published. *)
