(** Numerical-health monitoring: streaming per-state-variable reducers
    (min/max/mean, NaN/Inf counts, gate clamp-violation counters, a
    membrane-potential watchdog on the window [-200, 200] mV) computed
    straight from simulation state buffers — engine-independent,
    lock-free per-Domain accumulators merged at {!snapshot} (the
    {!Tracer} design), one atomic load per probe when disabled.
    Reducers only read: sampled runs are bitwise identical to unsampled
    ones. *)

type layout =
  | Cell_major  (** AoS: [cell*nvars + var] *)
  | Var_major  (** SoA: [var*ncells_pad + cell] *)
  | Blocked of int  (** AoSoA with block size [w] *)

type policy =
  | Warn  (** report each trip once through the warn sink *)
  | Abort
      (** raise {!Tripped} on hard trips (NaN / Inf / Vm range /
          conduction block / solver failure) *)

type reason = Nan | Inf | Gate_range | Vm_range | Conduction_block | Solver_failure

val reason_name : reason -> string

type config = {
  stride : int;  (** sample every [stride]-th step *)
  policy : policy;
}

val default_config : config
(** stride 16, [Warn].  The report keeps the first 16 distinct trips. *)

type var_spec = {
  v_name : string;
  v_slot : int;  (** slot in the state buffer *)
  v_gate : bool;  (** occupancy/gate semantics: must stay in [0, 1] *)
}

type trip = {
  t_var : string;
  t_reason : reason;
  t_cell : int;
  t_step : int;
  t_value : float;
}

type t

val create :
  ?cfg:config ->
  model:string ->
  layout:layout ->
  nvars:int ->
  ncells_pad:int ->
  vars:var_spec list ->
  ?warn:(string -> unit) ->
  unit ->
  t
(** A monitor for one simulation's state buffer.  [vars] lists the
    monitored state variables (the membrane potential is watched
    implicitly whenever {!sample_chunk} receives [?vm]).  [warn]
    receives one formatted report per (variable, reason) trip; the
    default prints to stderr.
    @raise Invalid_argument on non-positive [stride]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val due : t -> step:int -> bool
(** Whether [step] should be sampled: one atomic flag load (plus a
    modulo on the enabled path) — cheap enough for the per-step hot
    path. *)

val sample_chunk :
  t ->
  sv:floatarray ->
  vm:floatarray option ->
  lo:int ->
  hi:int ->
  step:int ->
  unit
(** Reduce cells [lo, hi) of the state buffer into the calling Domain's
    accumulators (lock-free; [vm] is indexed plainly by cell).  Reads
    only — never touches simulation state. *)

val note_sampled : t -> unit
(** Count one sampled step (call once per sampled step, outside the
    parallel region). *)

val note_block : t -> cell:int -> step:int -> unit
(** Conduction-block detector hook (tissue simulations): record one
    [Conduction_block] trip against [Vm] — a {e hard} trip, so it flips
    {!unhealthy} and aborts under the [Abort] policy.  Deduped like
    every other (variable, reason) pair; no-op while disabled. *)

val note_solver : t -> cell:int -> step:int -> residual:float -> unit
(** Linear-solver hook (tissue simulations): record one [Solver_failure]
    trip against [Vm] when a diffusion solve stopped without meeting its
    tolerance — a non-finite residual or a used-up iteration budget.
    [cell] is the first non-finite right-hand-side entry, or -1.
    Hard, deduped, no-op while disabled, like {!note_block}. *)

exception Tripped of string

val enforce : t -> unit
(** Apply the trip policy to every not-yet-reported trip: [Warn] pushes
    each through the warn sink; [Abort] raises {!Tripped} on the first
    hard trip (gate-range excursions only ever warn).  Call after the
    parallel region returned.
    @raise Tripped under [Abort] with a structured report naming model,
    variable, cell and step. *)

val tripped : t -> bool
(** Any trip recorded (atomic — safe from any thread). *)

val unhealthy : t -> bool
(** Any {e hard} trip recorded (NaN / Inf / Vm range) — the [/healthz]
    state (atomic — safe from any thread). *)

val report : t -> trip -> string
(** Structured single-line report: model, variable, cell, step, value,
    reason. *)

type var_stat = {
  vs_name : string;
  vs_gate : bool;
  vs_samples : int;  (** finite samples *)
  vs_min : float;  (** NaN when no finite sample was seen *)
  vs_max : float;
  vs_mean : float;
  vs_nan : int;
  vs_inf : int;
  vs_range : int;  (** gate-clamp or membrane-window violations *)
}

type snapshot = {
  hs_model : string;
  hs_steps_sampled : int;
  hs_tripped : bool;
  hs_unhealthy : bool;
  hs_vars : var_stat list;  (** monitored variables, then ["Vm"] *)
  hs_trips : trip list;  (** oldest first *)
}

val snapshot : t -> snapshot
(** Merge every Domain's accumulators.  Call while no Domain is
    sampling. *)

val totals : snapshot -> int * int * int
(** Total (NaN, Inf, range-violation) counts across every variable. *)
