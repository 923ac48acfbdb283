(** Operator-split monodomain reaction–diffusion engine.

    Couples the per-cell ionic step — the generated kernel running under
    any of the four {!Sim.Driver} engines, with Domain-parallel chunks —
    with an implicit diffusion step ({!Diffusion}: tridiagonal Thomas on
    cables, CG on sheets):

      dVm/dt = σ ∇²Vm − Iion + Istim

    with the membrane capacitance fixed at Cm = 1 µF/cm², so the
    reaction term carries no scale factor.

    {b Splitting order} (test-pinned, see DESIGN.md §12):
    - [Godunov] — per step: (1) ionic compute stage at the current state,
      (2) IMEX exchange+diffusion
      [(I − dt·λ·L) Vm' = Vm + dt·(Istim − Iion)] — reaction
      explicit, diffusion implicit, first-order in the splitting.
    - [Strang] — per step: (1) implicit diffusion over [dt/2], (2) the
      full-[dt] ionic stage plus explicit reaction update
      [Vm += dt·(Istim − Iion)], (3) implicit diffusion over [dt/2]
      — second-order.  The ionic stage runs at the driver's full [dt],
      so only the diffusion operator is halved.

    The stimulus is evaluated at the {e pre-step} time (the
    {!Sim.Driver.membrane_update} convention).  Diffusion, exchange and
    measurement are deterministic and single-threaded, and the ionic
    stage is bitwise-reproducible across thread counts, so tissue
    trajectories are bitwise identical across engines (native: the
    kernels' ≤ 2 ULP bound) and across [nthreads]. *)

type splitting = Godunov | Strang

type config = {
  sigma : float;  (** effective diffusivity σ/(Cm·χ), cm²/ms *)
  splitting : splitting;
  block_check_ms : float option;
      (** when set: at this simulation time, trip the conduction-block
          detector unless some cell {e outside} every stimulated region
          has activated *)
  probes : (int * int) option;
      (** conduction-velocity probe cells (defaults to 20% / 80% along
          x, middle row on sheets) *)
}

val default_config : config
(** σ = 0.001 cm²/ms, [Godunov], no block check, default probes.
    Activation is detected at {!Activation.create}'s defaults (upstroke
    at −20 mV, rearm below −60 mV). *)

type t

val create :
  ?engine:Sim.Driver.engine ->
  ?tile:int ->
  ?specialize:bool ->
  ?config:config ->
  ?nthreads:int ->
  Codegen.Kernel.t ->
  geom:Geometry.t ->
  dt:float ->
  protocol:Protocol.t ->
  t
(** A tissue simulation of [geom] running the generated kernel on every
    node.  [engine] and [tile] pass through to {!Sim.Driver.create}
    ([engine] defaults to {!Sim.Driver.Batched}).  [specialize] is
    ignored, as it is by {!Sim.Driver.create}.
    [nthreads] (default 1) Domain-parallelizes the ionic stage
    via the driver's race-checked chunk partitioning; results are
    bitwise identical for every value.  It ends with a minor
    collection, so stepping starts from an empty minor heap.
    @raise Sim.Driver.Driver_error as {!Sim.Driver.create}. *)

val driver : t -> Sim.Driver.t
(** The underlying driver, e.g. for {!Sim.Driver.enable_health} (attach
    it before stepping to arm the NaN/range and conduction-block
    monitors). *)

val geometry : t -> Geometry.t
val activation : t -> Activation.t
val protocol : t -> Protocol.t
val time : t -> float
(** Current simulation time, ms. *)

exception Solver_failed of Easyml.Diag.t
(** A CG diffusion solve stopped short of {!Diffusion.cg_tol} — a
    non-finite residual ([cg-nonfinite], naming the first non-finite
    right-hand-side cell) or a used-up iteration budget
    ([cg-max-iters]) — with no enabled health monitor to report it to. *)

val step : t -> unit
(** One operator-split step: ionic stage(s), exchange, diffusion
    solve(s), clock tick, activation observation, block check.  The
    stimulus is evaluated once per step, and the solve writes straight
    into the driver's Vm through buffers made at {!create}.  Phases
    record {!Obs.Tracer} spans ([tissue.ionic], [tissue.exchange],
    [tissue.diffusion]) when tracing is enabled.  A diffusion solve
    that did not converge is a hard [solver-failure] trip of an enabled
    health monitor ({!Obs.Health.enforce} runs at once), and otherwise
    raises {!Solver_failed}: a run never continues as if it had a
    solution.
    @raise Obs.Health.Tripped under the [Abort] policy. *)

val run : ?ckpt:Obs.Recorder.writer -> t -> steps:int -> float
(** [steps] full steps; returns total wall-clock seconds.  [?ckpt]
    attaches a flight recorder: after any step whose index is due
    ({!Obs.Recorder.due}) the simulation {!capture}s itself and records
    the checkpoint.  Captures copy every buffer, so a checkpointed run
    is bitwise identical to a plain one. *)

val probes : t -> int * int
val conduction_velocity : t -> float option
(** Velocity between the probe cells, cm/ms ([None] until both
    activated). *)

val blocked : t -> bool
(** The conduction-block detector tripped (propagation never left the
    stimulated region by [block_check_ms]).  Also recorded as a hard
    {!Obs.Health} trip when a monitor is attached. *)

val stats : t -> Obs.Export.tissue_stats
(** Prometheus-ready counters ({!Obs.Export.prometheus} [?tissue]). *)

(** {2 Flight recorder} *)

val capture : t -> Obs.Recorder.checkpoint
(** {!Sim.Driver.capture} of the inner driver (state variables, Vm and
    the other externals, clock) extended with the activation detector's
    full state ([act:*] sections) and the conduction-block latches, under
    [kind=tissue] metadata.  A restored tissue run reproduces activation
    maps and block verdicts exactly, not just voltages. *)

val restore : t -> Obs.Recorder.checkpoint -> (unit, Easyml.Diag.t) result
(** Load a {!capture}d tissue checkpoint into a simulation created with
    the same model, config, geometry, protocol and [dt].  Mismatches
    (kind, geometry, or anything {!Sim.Driver.restore} validates) are
    structured [checkpoint-mismatch] diagnostics; on [Ok ()] the
    simulation continues bitwise identically to the uninterrupted run. *)
