(** Simulation driver: the openCARP [bench] analogue.

    Owns the runtime data (cell state in the configured layout, external
    arrays, lookup tables, scratch rows), compiles the generated kernel,
    and advances the two-stage simulation: compute stage (the generated
    kernel, in parallel chunks) then the membrane update standing in for
    the solver stage. *)

exception Driver_error of string

type engine =
  | Fused
      (** the old name of {!Batched}: checkpoints written at default flags
          by earlier releases record it, so it still parses and
          {!create} builds a {!Batched} driver for it *)
  | Batched
      (** tile-batched engine (default): loop-inverted dispatch over
          coalesced scratch rows, fused LUT macro-op (bitwise-identical
          results) *)
  | Compiled  (** closure engine (one instance per thread) *)
  | Reference  (** tree-walking interpreter (slow; differential tests) *)
  | Native
      (** machine code: the lowered kernel is emitted
          as C, compiled by the system toolchain and [dlopen]ed
          ({!Codegen.Cache.native}).  When no C compiler is available
          (or the compile fails), {!create} degrades to {!Batched} with
          an {!Easyml.Diag} warning on stderr — never an exception *)

type t = {
  gen : Codegen.Kernel.t;
  ncells : int;
  ncells_pad : int;  (** padded to a multiple of the vector width *)
  dt : float;
  sv : floatarray;
  exts : (string * floatarray) list;
  tables : floatarray list;
  engine : engine;
  tile : int;
      (** resolved batched-engine tile size in vector blocks (1 for the
          other engines); parallel chunk boundaries align to
          [tile × width] cells *)
  native : (string -> Exec.Rt.v array -> Exec.Rt.v array) option;
      (** symbol lookup into the JIT-compiled shared object; [Some]
          exactly when [engine] is {!Native} *)
  registry : Exec.Rt.registry;
  mutable runners : (Exec.Rt.v array -> Exec.Rt.v array) array;
  mutable args : Exec.Rt.v array array;
      (** each runner's argument vector (built once with the runner; a
          call rewrites only its chunk bounds and the clock) *)
  mutable t_now : float;
  mutable steps_done : int;
  mutable health : Obs.Health.t option;
}

val create :
  ?engine:engine ->
  ?tile:int ->
  ?specialize:bool ->
  Codegen.Kernel.t ->
  ncells:int ->
  dt:float ->
  t
(** Allocate, initialize from the model's [_init] values and build the
    lookup tables (by running the generated [lut_init_*] functions).
    [engine] defaults to {!Batched}; {!Fused} builds a {!Batched}
    driver too.  [tile] sets the batched engine's tile size in vector
    blocks (default 0 = auto-size for L1); ignored by the other
    engines, and results are bitwise identical for every value.  [dt]
    and the padded cell count reach the kernel as arguments, so every
    driver of one model × config shares one kernel (and one native
    library).  [specialize] is ignored: it is kept for callers written
    when kernels were partially evaluated per driver.
    [~engine:Native] resolves the machine-code artifact eagerly: if no C
    toolchain is available or compilation fails, the driver is built on
    {!Batched} instead (one warning on stderr, no exception) — check the
    returned [engine] field to see which engine actually runs.
    @raise Driver_error on non-positive [ncells]/[dt] or negative
    [tile]. *)

val reset : t -> unit
(** Back to the initial state (also rebuilds tables). *)

val enable_health :
  ?cfg:Obs.Health.config -> ?warn:(string -> unit) -> t -> unit
(** Attach a numerical-health monitor ({!Obs.Health}): per-variable
    streaming min/max/mean, NaN/Inf counts, gate clamp-violation
    counters and a configurable membrane-potential watchdog, sampled
    inside the compute stage's chunks every [cfg.stride] steps.
    Reducers only read — monitored runs stay bitwise identical to
    unmonitored ones.  Under [cfg.policy = Abort] the compute stage
    raises {!Obs.Health.Tripped} on NaN / Inf / Vm-range trips; [Warn]
    (the default) reports each trip once through [warn], which defaults
    to an {!Easyml.Diag}-formatted line on stderr. *)

val disable_health : t -> unit
(** Detach the monitor (sampling stops immediately). *)

val health : t -> Obs.Health.t option
(** The attached monitor, e.g. for {!Obs.Health.unhealthy}. *)

val health_snapshot : t -> Obs.Health.snapshot option
(** Merged statistics from the attached monitor, if any. *)

val compute_stage : ?nthreads:int -> t -> unit
(** One pass of the generated kernel over all cells; chunk boundaries are
    aligned to the vector width, one kernel instance per thread. *)

val membrane_update : ?stim:Stim.t -> t -> unit
(** [Vm += dt (stim - Iion)] on every cell (when the model exposes the
    conventional Vm/Iion externals). *)

val step : ?nthreads:int -> ?stim:Stim.t -> t -> unit
(** compute stage + membrane update + clock tick. *)

val step_timed : ?nthreads:int -> ?stim:Stim.t -> t -> float
(** Like {!step}; returns the compute stage's wall-clock seconds. *)

val run :
  ?nthreads:int -> ?stim:Stim.t -> ?ckpt:Obs.Recorder.writer -> t ->
  steps:int -> float
(** [steps] full steps; returns total compute-stage seconds (the quantity
    the paper's figures report).  [?ckpt] attaches a flight recorder:
    after any step whose index is due ({!Obs.Recorder.due}) the driver
    {!capture}s itself and records the checkpoint.  Captures copy every
    buffer, so a checkpointed run is bitwise identical to a plain one;
    the write cost is excluded from the returned compute-stage time. *)

val tick : t -> unit
(** Advance the clock only (callers driving their own solver stage). *)

val time : t -> float
(** Current simulation time, ms. *)

val vm : t -> int -> float
val ext : t -> string -> int -> float

val ext_buffer : t -> string -> floatarray
(** The raw external buffer ([ncells_pad] entries; padded lanes mirror
    the last real cell).  Solver stages (e.g. the tissue monodomain
    diffusion step) read and update it in place.
    @raise Driver_error when the model has no such external. *)

val state : t -> string -> int -> float
val set_ext : t -> string -> int -> float -> unit
val set_state : t -> string -> int -> float -> unit

val snapshot : t -> int -> (string * float) list
(** Every state plus every assigned external of one cell, for differential
    tests between configurations. *)

(** {2 Flight recorder} *)

val engines : (string * engine) list
(** Every engine under its CLI spelling: [batched], [native],
    [closure], [interp], and [fused], the old name of [batched]. *)

val engine_name : engine -> string
(** The engine's spelling in {!engines}. *)

val capture : t -> Obs.Recorder.checkpoint
(** Snapshot the driver's mutable state — state variables (all three
    layouts serialize through the same buffer), every external array,
    step index and simulation clock — plus the metadata to validate a
    restore (model, layout, width, population, [dt] bit pattern,
    engine).  Lookup tables are rebuilt
    deterministically at {!create}/{!reset} and therefore not captured.
    Buffers are copied: capturing never perturbs the run. *)

val restore : t -> Obs.Recorder.checkpoint -> (unit, Easyml.Diag.t) result
(** Load a {!capture}d checkpoint into a driver created with the same
    model, config, population and [dt].  Any mismatch (model, config —
    lookup tables, spline and cost profile included — layout, width,
    cell counts, [dt] bits, missing or mis-sized sections) is a
    structured [checkpoint-mismatch] diagnostic and the driver is left
    unmodified enough to discard; on [Ok ()] the driver continues
    bitwise identically to the uninterrupted run.  Sections the driver
    does not own (e.g. tissue activation state) are ignored. *)
