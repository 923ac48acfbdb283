(** C backend: pretty-print a lowered kernel module as one self-contained
    C translation unit (paper §5 — the "hand the loop nest to a real
    backend" step, with the system C compiler standing in for LLVM).

    The emitted unit contains, per IR function, a [static] definition
    with the natural parameter list (scalars by value, memrefs as
    [double *restrict]) plus one exported packed-ABI wrapper
    [void limpet_<name>(const int64_t *ia, const double *fa,
    double *const *ma)] that unpacks class-ordered argument arrays
    (I64/I1 params from [ia], F64 params from [fa], Memref params from
    [ma], each in declaration order) — the calling convention
    {!Exec.Native.bind} marshals to.

    Vector values are GCC/Clang vector-extension values, one
    [vector_size] type per element class and width the unit uses
    ([vector<wxi1>] is an all-ones/zero [int64_t] mask); ops with no
    exact whole-vector C form (libm calls, [fmin]/[fmax], [fmod],
    integer div/rem, conversions, gathers, scatters, iota, LUT helpers)
    run one lane loop each.

    Floating-point policy: constants are emitted as hex literals, libm
    names match the interpreter's builtin registry, [fmin]/[fmax] use
    OCaml [Float.min]/[Float.max] semantics (emitted inline), selects
    blend bits and broadcasts copy them, and the unit is meant to be
    compiled with {!Exec.Native.flags} so trajectories stay
    bitwise-comparable to the OCaml engines.  Every
    transcendental call the emitter writes is one of
    {!Exec.Native.libm_calls}, whose [-fno-builtin-<f>] flags stop the C
    compiler from evaluating it at compile time with its own
    correctly-rounded library (MPFR), which can differ by 1 ULP from the
    glibc call the OCaml engines make at run time.  Exactly-specified
    builtins (sqrt, fabs, floor, fmod, …) keep their builtins.

    Aliasing contract: because memref parameters are
    [restrict]-qualified, callers must pass pairwise-distinct buffers —
    the driver ABI (state, externals, params, table/row pairs) already
    does. *)

exception Unsupported of string
(** Raised by {!emit_module} on IR with no C lowering (vector-typed
    function parameters, vector widths that are not a power of two,
    calls with results, unknown externs).  Kernels
    produced by {!Kernel.generate} trip it only at such a width; it
    exists so arbitrary modules degrade with a diagnostic instead of
    emitting wrong code. *)

val symbol : string -> string
(** Exported (dlsym-visible) wrapper name for an IR function name:
    ["limpet_" ^ name] with non-identifier characters replaced by [_].
    Shared contract with {!Exec.Native.bind} callers. *)

val emit_module : ?banner:string list -> Ir.Func.modl -> string
(** The complete C translation unit for a module.  [banner] lines are
    embedded as a provenance comment header (model, pipeline id, digest,
    compiler, flags — whatever the caller records). *)
