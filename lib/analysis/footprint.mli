(** Memory-footprint summaries: {!of_func}, a global interval-powered
    summary of every access as a buffer origin plus a touched-index
    interval, and {!chase_idx}, which normalizes constant index
    arithmetic for same-block reasoning. *)

type access = {
  acc_op : Ir.Op.op;
  acc_origin : Interval.origin;
  acc_itv : Itv.I.t;  (** touched element indices, all lanes included *)
  acc_write : bool;
}

val widen_by : Itv.I.t -> int -> Itv.I.t
(** Vector ops at width [w] starting at index [i] touch [i .. i+w-1]:
    widen the start-index interval by the lane span. *)

val of_func : ?seed:(Ir.Value.t * Interval.v) list ->
  Ir.Func.func -> Interval.state * access list
(** Analyze [f] (optionally seeding parameter values — e.g. concrete
    chunk bounds) and collect every access on the converged
    environment.  Accesses in provably-dead loops are not reported. *)

val writes : access list -> access list
val reads : access list -> access list

val by_origin : access list -> (Interval.origin * access list) list
(** Accesses grouped per origin, origins in first-touch order. *)

val chase_idx :
  (Ir.Value.t -> Ir.Op.op option) -> Ir.Value.t -> int -> int ->
  Ir.Value.t option * int
(** [chase_idx defs v off fuel]: normalize an index to (symbolic root,
    constant offset) by chasing [x + c] / [x - c] / [c] chains through
    the defining-op map.  [None] root means a fully-constant index. *)
