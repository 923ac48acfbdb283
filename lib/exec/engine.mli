(** Closure-compiling execution engine: IR is compiled once into OCaml
    closures over preallocated typed register files (the stand-in for
    LLVM native code generation).  Vector ops execute their whole width
    per dispatch, which is where the genuine wall-clock advantage of
    vectorized kernels comes from in this port.

    Compiled functions are NOT reentrant: each compilation owns one
    register file, so use one compiled instance per thread (the driver
    does).

    The compilation context, the per-op thunk compiler and the module
    linker are exposed for reuse by the {!Batched} tile-batched engine,
    which shares the register files and runs every op it does not tile
    through {!compile_op}. *)

exception Exec_error of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Exec_error} with a formatted message. *)

(** {1 Register files} *)

type slots
(** A fixed slot for every SSA value of a function. *)

type env = {
  f : float array;
  i : int array;
  b : bool array;
  vf : floatarray array;
  vi : int array array;
  vb : bool array array;
  m : floatarray array;
}

(** {1 Compilation context} *)

type compiled = Rt.v array -> Rt.v array

type fctx = {
  slots : slots;
  env : env;
  get : string -> compiled;  (** module-level callee lookup *)
  return_box : Rt.v array ref;
}

val make_fctx : Ir.Func.func -> get:(string -> compiled) -> fctx

val fslot : fctx -> Ir.Value.t -> int
val islot : fctx -> Ir.Value.t -> int
val bslot : fctx -> Ir.Value.t -> int
val vfslot : fctx -> Ir.Value.t -> int * int
val vislot : fctx -> Ir.Value.t -> int * int
val vbslot : fctx -> Ir.Value.t -> int * int
val mslot : fctx -> Ir.Value.t -> int

type region_compiler =
  on_yield:(Ir.Op.op -> unit -> unit) -> Ir.Op.region -> unit -> unit
(** A region-body compiler, parameterizing {!compile_op} so structured ops
    compile their nested regions with whichever engine drives. *)

val compile_op : fctx -> compile_region:region_compiler -> Ir.Op.op -> unit -> unit
(** Compile any single op to a thunk over the context's register file. *)

val finish : fctx -> Ir.Func.func -> body:(unit -> unit) -> compiled
(** Wrap a compiled body into the external calling convention. *)

val module_linker :
  ?externs:Rt.registry ->
  Ir.Func.modl ->
  (get:(string -> compiled) -> Ir.Func.func -> compiled) ->
  string ->
  compiled
(** Lazy per-function compile-and-link with extern fallback. *)

(** {1 Scalar helpers shared with the batched engine} *)

val unary_fn : string -> (float -> float) option
val binary_fn : string -> (float -> float -> float) option
val fbin_fn : Ir.Op.fbin -> float -> float -> float
val ibin_fn : Ir.Op.ibin -> int -> int -> int
val bbin_fn : Ir.Op.bbin -> bool -> bool -> bool
val cmpf_fn : Ir.Op.cmp -> float -> float -> bool
val cmpi_fn : Ir.Op.cmp -> int -> int -> bool

(** {1 Entry points} *)

val compile_func : get:(string -> compiled) -> Ir.Func.func -> compiled
(** Compile one function against a callee lookup. *)

val compile_module :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> compiled
(** Lazy per-function compiler; unknown names fall back to the extern
    registry. Local calls between module functions are supported. *)

val run :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> Rt.v array -> Rt.v array
(** Compile and invoke one function. *)
