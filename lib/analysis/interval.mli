(** Value-range analysis over the IR (the framework's flagship client).

    Every SSA value gets an abstract value: float-like values a float
    interval with NaN flag ({!Itv.F}), int-like values a congruence
    interval ({!Itv.I}), bool-like values a can-be-true/can-be-false
    pair, and memrefs a symbolic buffer {e origin} — the handle the
    footprint and bounds clients key their summaries on. *)

type origin =
  | Oparam of int  (** i-th function parameter *)
  | Oalloc of int  (** [memref.alloc] with this op id *)
  | Ounknown

val origin_equal : origin -> origin -> bool
val pp_origin : origin Fmt.t

type v =
  | AF of Itv.F.t
  | AI of Itv.I.t
  | AB of { cant : bool; canf : bool }  (** can be true / can be false *)
  | AM of origin
  | Atop

val top_for_ty : Ir.Ty.t -> v
(** Least-informative value of the right class for a type (vector types
    get the element class: lanes are tracked jointly). *)

val math_itv : string -> Itv.F.t list -> Itv.F.t
(** Interval semantics of a named math builtin (monotone envelopes for
    [exp]/[tanh]/..., domain-aware NaN for [log]/[sqrt]/[asin]/...).
    Shared with the EasyML lint's AST evaluator, so model-level and
    IR-level range reasoning agree by construction.  Unknown names
    degrade to top-with-NaN. *)

val cmpf : Ir.Op.cmp -> Itv.F.t -> Itv.F.t -> v
(** Abstract float comparison (NaN makes every ordered predicate
    possibly-false, [<>] possibly-true). *)

val cmpi : Ir.Op.cmp -> Itv.I.t -> Itv.I.t -> v

type state
(** Converged per-SSA-value facts for one function. *)

val analyze_func :
  ?seed:(Ir.Value.t * v) list ->
  ?visit:(state -> Ir.Op.op -> unit) ->
  Ir.Func.func ->
  state
(** Run the analysis to fixpoint (see {!Dataflow.Make.analyze_func} for
    [seed]/[visit]). *)

val get : state -> Ir.Value.t -> v
val float_itv : state -> Ir.Value.t -> Itv.F.t
(** Float facts for a value (top when it is not float-classed). *)

val int_itv : state -> Ir.Value.t -> Itv.I.t
val mem_origin : state -> Ir.Value.t -> origin

val join : v -> v -> v
