(** Spatially addressed stimulus protocols for tissue simulations,
    built from {!Sim.Stim.spatial} pulses: S1 planar strips, S1–S2
    cross-field shock (spiral-wave induction) and restitution pacing
    trains. *)

type t = {
  name : string;
  stims : Sim.Stim.spatial list;  (** summed per cell at each step *)
}

val current : t -> t:float -> cell:int -> float
(** Total stimulus current for [cell] at time [t] (ms): the sum of
    every pulse's {!Sim.Stim.at_cell}.  With a single pulse the sum is
    the pulse's value itself — no arithmetic is added. *)

(** {2 Evaluating once per step} *)

type pulses
(** Every pulse's value at one time, evaluated once and shared by every
    cell of a step. *)

val pulses : t -> pulses
(** Room for the protocol's pulse values; allocate once per simulation. *)

val eval : pulses -> t:float -> bool
(** [eval e ~t] evaluates each pulse's {!Sim.Stim.at} at [t], once, and
    says whether any is on.  When none is, every cell's {!current} at
    [t] is the literal [0.0]. *)

val cell_current : pulses -> cell:int -> float
(** [cell_current e ~cell] after [eval e ~t] is [current p ~t ~cell],
    bit for bit. *)

val s1 :
  ?amplitude:float ->
  ?start:float ->
  ?duration:float ->
  ?width:int ->
  Geometry.t ->
  t
(** One planar stimulus on the strip [x < width] (default 5 cells;
    amplitude 80 µA/µF, start 1 ms, duration 2 ms): launches a plane
    wave travelling in +x. *)

val s1s2 :
  ?amplitude:float ->
  ?start:float ->
  ?duration:float ->
  ?width:int ->
  s2_start:float ->
  Geometry.t ->
  t
(** Cross-field spiral induction: the {!s1} plane wave plus an S2 shock
    at [s2_start] (ms) covering the lower-left quadrant
    ([x < nx/2 && y < ny/2]) of a sheet.  Delivered into the S1 wake's
    vulnerable window, the S2 front breaks and curls into a reentrant
    spiral.  On a cable the S2 restimulates the S1 site (premature
    beat). *)

val restitution :
  ?amplitude:float ->
  ?start:float ->
  ?duration:float ->
  ?width:int ->
  n_s1:int ->
  interval:float ->
  s2_coupling:float ->
  Geometry.t ->
  t
(** Restitution pacing: a finite train of [n_s1] S1 pulses spaced
    [interval] ms apart on the [x < width] strip, then one premature S2
    at the same site [s2_coupling] ms after the last S1 — the standard
    S1–S2 restitution-curve protocol.
    @raise Invalid_argument when [n_s1 < 1] or [interval <= 0]. *)
