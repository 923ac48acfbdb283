(** IR builder.

    Creates SSA values and ops with eager operand type checking, so that a
    code-generation bug surfaces at the op construction site rather than in
    the verifier or the execution engine.  Loop regions are built through
    the higher-order {!for_} combinator, which takes a body-emitting
    callback and inserts the terminating [scf.yield] automatically. *)

exception Type_error of string

(** Shared id counters: one [ctx] per module keeps value and op ids unique
    across all of its functions. *)
type ctx

val create_ctx : unit -> ctx
val fresh_value : ctx -> Ty.t -> Value.t

val fresh_op_id : ctx -> int
(** Allocate a module-unique op id (for clients like the parser that
    construct op records directly). *)

(** A builder holds a stack of open regions; ops are appended to the
    innermost one. *)
type t

val create : ctx -> t

val open_region : t -> Ty.t list -> Value.t list
(** Open a nested region whose block takes arguments of the given types;
    returns the argument values. *)

val close_region : t -> Op.region
(** Close the innermost open region and return it. *)

val emit :
  t -> Op.kind -> ?regions:Op.region array -> Value.t list -> Ty.t list ->
  Value.t list
(** Low-level: append an op with fresh result values of the given types. *)

val emit1 : t -> Op.kind -> ?regions:Op.region array -> Value.t list -> Ty.t -> Value.t
val emit0 : t -> Op.kind -> ?regions:Op.region array -> Value.t list -> unit

(* arith *)
val constf : t -> float -> Value.t
val consti : t -> int -> Value.t
val binf : t -> Op.fbin -> Value.t -> Value.t -> Value.t
val addf : t -> Value.t -> Value.t -> Value.t
val subf : t -> Value.t -> Value.t -> Value.t
val mulf : t -> Value.t -> Value.t -> Value.t
val divf : t -> Value.t -> Value.t -> Value.t
val minf : t -> Value.t -> Value.t -> Value.t
val maxf : t -> Value.t -> Value.t -> Value.t
val negf : t -> Value.t -> Value.t
val bini : t -> Op.ibin -> Value.t -> Value.t -> Value.t
val addi : t -> Value.t -> Value.t -> Value.t
val subi : t -> Value.t -> Value.t -> Value.t
val muli : t -> Value.t -> Value.t -> Value.t
val divi : t -> Value.t -> Value.t -> Value.t
val remi : t -> Value.t -> Value.t -> Value.t
val binb : t -> Op.bbin -> Value.t -> Value.t -> Value.t
val andb : t -> Value.t -> Value.t -> Value.t
val orb : t -> Value.t -> Value.t -> Value.t
val notb : t -> Value.t -> Value.t
val cmpf : t -> Op.cmp -> Value.t -> Value.t -> Value.t
val select : t -> Value.t -> Value.t -> Value.t -> Value.t
(** [select b c x y]: [x] and [y] are f64-like or i1-like of [c]'s width. *)

val sitofp : t -> Value.t -> Value.t

(* math *)
val math : t -> string -> Value.t list -> Value.t
(** [math b name args] emits a math-dialect op; [name] must be a known
    {!Easyml.Builtins} entry with matching arity. *)

(* vector *)
val broadcast : t -> width:int -> Value.t -> Value.t
(** Identity at [width = 1]. *)

val vec_load : t -> width:int -> mem:Value.t -> idx:Value.t -> Value.t
val vec_store : t -> vec:Value.t -> mem:Value.t -> idx:Value.t -> unit
val gather : t -> mem:Value.t -> idxs:Value.t -> Value.t
val scatter : t -> vec:Value.t -> mem:Value.t -> idxs:Value.t -> unit
val iota : t -> width:int -> Value.t
(** [iota] requires [width >= 2]. *)

(* memref *)
val load : t -> mem:Value.t -> idx:Value.t -> Value.t
val store : t -> Value.t -> mem:Value.t -> idx:Value.t -> unit

(* scf *)
val for_ :
  t -> ?parallel:bool -> lb:Value.t -> ub:Value.t -> step:Value.t ->
  inits:Value.t list ->
  (iv:Value.t -> iters:Value.t list -> Value.t list) ->
  Value.t list
(** Structured counted loop; the body callback receives the induction
    variable and loop-carried values and returns the yielded values, which
    must match [inits] in type. *)

(* func *)
val call : t -> Func.modl -> string -> Value.t list -> Value.t list
val ret : t -> Value.t list -> unit

val func :
  ctx -> name:string -> params:Ty.t list -> results:Ty.t list ->
  (t -> Value.t list -> unit) -> Func.func
(** Build a function: opens the body region with [params] argument types,
    runs the body callback, and closes the region.  The body must end with
    {!ret}. *)
