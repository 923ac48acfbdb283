(** Forward dataflow framework over the structured SSA IR.

    The IR has no CFG — its only control flow is [scf.for], whose body
    is a single-block region — so instead of a worklist over basic
    blocks the solver walks the region tree: straight-line ops apply the
    client's transfer function once, and [scf.for] iterates the body to
    a fixpoint on the loop-carried values, widening after a bounded
    number of rounds.  After convergence an optional [visit] hook
    replays the whole function once on the stable environment, so
    fact-collecting clients only ever see post-fixpoint values. *)

(** The abstract-value lattice. *)
module type DOMAIN = sig
  type v

  val top : v

  val is_bot : v -> bool
  (** [is_bot v] means no concrete value reaches here (unreachable). *)

  val join : v -> v -> v

  val widen : v -> v -> v
  (** [widen old next] must reach a fixed point in finitely many steps;
      jumping straight to [top] is always sound. *)

  val equal : v -> v -> bool
  val pp : v Fmt.t
end

(** A domain plus the transfer functions of one analysis. *)
module type CLIENT = sig
  include DOMAIN

  type ctx
  (** Client context threaded through transfer (e.g. the module, extern
      length info, seeds). *)

  val param : ctx -> int -> Ir.Value.t -> v
  (** Initial abstract value of the [i]-th function parameter. *)

  val transfer : ctx -> get:(Ir.Value.t -> v) -> Ir.Op.op -> v array
  (** Abstract results of a non-structural op ([For]/[Yield]/[Return]
      never reach here).  Must return one value per result. *)

  val loop_iv : ctx -> lb:v -> ub:v -> step:v -> v
  (** Abstract induction variable for a loop over [\[lb, ub)] by [step].
      Return a bottom value iff the loop provably never executes. *)
end

module Make (C : CLIENT) : sig
  type state
  (** Converged per-SSA-value facts plus the client context. *)

  val get : state -> Ir.Value.t -> C.v
  (** Facts for a value ([C.top] when the value was never reached). *)

  val set : state -> Ir.Value.t -> C.v -> unit

  val analyze_func :
    ?seed:(Ir.Value.t * C.v) list ->
    ?visit:(state -> Ir.Op.op -> unit) ->
    C.ctx ->
    Ir.Func.func ->
    state
  (** Analyze a function body to fixpoint.  [seed] overrides the
      abstract value of specific SSA values (typically parameters) after
      the client's [param] defaults are installed.  [visit] fires once
      per op on the converged environment, loops included. *)
end
