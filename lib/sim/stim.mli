(** Stimulus protocols: rectangular current pulses with optional periodic
    (S1) repetition, matching openCARP's bench. *)

type t = {
  amplitude : float;
  start : float;  (** ms *)
  duration : float;  (** ms *)
  period : float option;  (** repeat every [period] ms when set *)
}

val none : t
val default : t
(** 60 uA at 1 ms for 2 ms, repeating every second. *)

val make :
  ?amplitude:float -> ?start:float -> ?duration:float -> ?period:float ->
  unit -> t

val at : t -> float -> float
(** Stimulus current at time [t] (ms). *)

type mask = Uniform | Weights of floatarray
(** Per-cell amplitude scaling: [Uniform] applies the pulse to every
    cell unscaled; [Weights w] multiplies the pulse current by
    [w.(cell)] (0 outside the stimulated region). *)

type spatial = { pulse : t; mask : mask }
(** A spatially addressed stimulus: one pulse schedule plus a per-cell
    amplitude mask, the building block of tissue protocols
    (S1 planar strips, S1–S2 cross-field, restitution trains). *)

val uniform : t -> spatial
val weighted : t -> floatarray -> spatial

val region : t -> n:int -> lo:int -> hi:int -> spatial
(** Weight 1 on cells [lo, hi) of an [n]-cell population, 0 elsewhere.
    @raise Invalid_argument unless [0 <= lo <= hi <= n]. *)

val mask_into : add:bool -> spatial -> float -> floatarray -> unit
(** [mask_into ~add s a dst] gives every cell [i] of [dst] its share
    of the pulse value [a]: [a] itself under a [Uniform] mask,
    [a *. w.(i)] under [Weights w], and [0.0] whenever [a = 0.0].  The
    share is written over [dst.(i)], or added to it when [add].  With
    [a = at s.pulse t] each share is {!at_cell}, bit for bit, so a
    caller can evaluate the pulse once for many cells; no float is
    boxed per cell. *)

val at_cell : spatial -> t:float -> cell:int -> float
(** Stimulus current for one cell at time [t].  With a [Uniform] mask
    this is {e bitwise} identical to [at s.pulse t] — the scalar path is
    untouched by the spatial lifting. *)
