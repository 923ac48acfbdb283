(** Simulation driver: the openCARP [bench] analogue.

    Owns the runtime data (cell state buffer in the configured layout,
    external-variable arrays, lookup tables, scratch row buffers), compiles
    the generated kernel with the execution engine, and advances the
    two-stage simulation: the *compute stage* (the generated kernel, run in
    parallel chunks over cells) followed by the per-cell membrane update
    standing in for the solver stage, [Vm += dt * (stim(t) - Iion)]. *)

open Exec
module M = Easyml.Model

exception Driver_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Driver_error s)) fmt

type engine = Fused | Batched | Compiled | Reference | Native

type t = {
  gen : Codegen.Kernel.t;
  ncells : int;
  ncells_pad : int;
  dt : float;
  sv : floatarray;
  exts : (string * floatarray) list;
  params_buf : floatarray option;
  tables : floatarray list;  (** one per lookup plan, row-major *)
  engine : engine;
  tile : int;
      (** resolved batched-engine tile size in vector blocks (1 for the
          other engines); Domain-parallel chunk boundaries align to it *)
  specialized : bool;
      (** the kernel was partially evaluated over this driver's run
          constants ({!Codegen.Cache.specialize}); also enables the
          stimulus phase split in {!run} — results are bitwise identical
          either way *)
  native : (string -> Rt.v array -> Rt.v array) option;
      (** symbol lookup into the JIT-compiled shared object
          ({!Codegen.Cache.native}); [Some] exactly when [engine] is
          {!Native} — each call returns a fresh binding with private
          marshalling buffers, so per-thread runners stay independent *)
  registry : Rt.registry;
  proved : (int, unit) Hashtbl.t;
      (** access ops of the compute kernel proved in-bounds under this
          driver's buffer contract; engines compile them unchecked *)
  mutable runners : (Rt.v array -> Rt.v array) array;
      (** one compiled kernel instance per thread (engines are not
          reentrant: each has its own register file) *)
  mutable rows : floatarray list array;  (** per-thread LUT row buffers *)
  mutable t_now : float;
  mutable steps_done : int;
  mutable health : Obs.Health.t option;
      (** numerical-health monitor; sampled inside the compute stage's
          chunks when due, enforced after the parallel region returns *)
}

let width (d : t) = d.gen.Codegen.Kernel.cfg.Codegen.Config.width

let make_registry () : Rt.registry =
  let r = Rt.create_registry () in
  Runtime.Lut.register r;
  r

let make_runner (d_engine : engine) (registry : Rt.registry) ~proved
    ~(tile : int) ~native (modl : Ir.Func.modl) : Rt.v array -> Rt.v array =
  match d_engine with
  | Native -> (
      match native with
      | Some lookup -> lookup Codegen.Kernel.compute_name
      | None -> fail "native engine without a compiled library")
  | Fused ->
      let lookup = Fused.compile_module ~externs:registry ~proved modl in
      lookup Codegen.Kernel.compute_name
  | Batched ->
      let lookup =
        Batched.compile_module ~externs:registry ~proved ~tile modl
      in
      lookup Codegen.Kernel.compute_name
  | Compiled ->
      let lookup = Engine.compile_module ~externs:registry ~proved modl in
      lookup Codegen.Kernel.compute_name
  | Reference ->
      (* the reference interpreter never elides checks *)
      fun args -> Interp.run ~externs:registry modl Codegen.Kernel.compute_name args

let make_rows (gen : Codegen.Kernel.t) : floatarray list =
  let w = gen.Codegen.Kernel.cfg.Codegen.Config.width in
  List.map
    (fun plan ->
      Rt.buffer (max 1 (Easyml.Lut_cones.n_columns plan * w)))
    gen.Codegen.Kernel.lut_plans

(** Initialize state and external buffers from the model's [_init] values
    and (re)build the lookup tables by running the generated [lut_init_*]
    functions through the engine. *)
let reset (d : t) : unit =
  let model = d.gen.Codegen.Kernel.model in
  let layout = d.gen.Codegen.Kernel.cfg.Codegen.Config.layout in
  let nvars = d.gen.Codegen.Kernel.nvars in
  (* state *)
  List.iter
    (fun (name, k) ->
      let init =
        match M.find_state model name with
        | Some sv -> sv.M.sv_init
        | None -> 0.0
      in
      for c = 0 to d.ncells_pad - 1 do
        Float.Array.set d.sv
          (Runtime.Layout.index layout ~nvars ~ncells:d.ncells_pad ~cell:c ~var:k)
          init
      done)
    d.gen.Codegen.Kernel.state_index;
  (* externals *)
  List.iter
    (fun (name, buf) ->
      let init =
        match M.find_ext model name with Some e -> e.M.ext_init | None -> 0.0
      in
      Float.Array.fill buf 0 (Float.Array.length buf) init)
    d.exts;
  (* parameters (when not folded) *)
  (match d.params_buf with
  | None -> ()
  | Some buf ->
      List.iteri
        (fun k (_, v) -> Float.Array.set buf k v)
        model.M.params);
  (* lookup tables *)
  let lookup =
    match d.engine with
    | Native -> (
        match d.native with
        | Some lookup -> lookup
        | None -> fail "native engine without a compiled library")
    | Fused ->
        Fused.compile_module ~externs:d.registry ~proved:d.proved
          d.gen.Codegen.Kernel.modl
    | Batched ->
        Batched.compile_module ~externs:d.registry ~proved:d.proved
          ~tile:d.tile d.gen.Codegen.Kernel.modl
    | Compiled ->
        Engine.compile_module ~externs:d.registry ~proved:d.proved
          d.gen.Codegen.Kernel.modl
    | Reference ->
        fun name args ->
          Interp.run ~externs:d.registry d.gen.Codegen.Kernel.modl name args
  in
  Obs.Tracer.with_span "driver.lut_init" (fun () ->
      List.iter2
        (fun (plan : Easyml.Lut_cones.t) table ->
          let init =
            lookup (Codegen.Kernel.lut_init_name plan.Easyml.Lut_cones.spec)
          in
          ignore (init [| Rt.M table; Rt.F d.dt |]))
        d.gen.Codegen.Kernel.lut_plans d.tables);
  (* drop the lazily-compiled per-thread kernel instances too: a reset
     driver must re-run exactly like a fresh one — same results AND the
     same trace (compile spans included), so consecutive traced runs are
     comparable event for event *)
  d.runners <- [||];
  d.rows <- [||];
  d.t_now <- 0.0;
  d.steps_done <- 0

(** [create ?engine ?elide gen ~ncells ~dt] builds a driver.  With
    [elide] (the default) the bounds prover runs over the compute kernel
    seeded with this driver's buffer sizes, and every access it
    certifies compiles without its runtime bounds check — results are
    bitwise identical either way (only failure branches are dropped);
    [~elide:false] keeps every check, for differentials and ablation.
    [tile] overrides the batched engine's tile size in vector blocks
    (default: the config's [tile] knob, 0 = auto-size for L1); results
    are bitwise identical for every tile size.  [specialize] (default
    true) partially evaluates the kernel over this driver's run
    constants — [dt] and the padded cell count become IR constants and
    the pass pipeline re-runs over them ({!Codegen.Cache.specialize});
    the reference interpreter always runs the unspecialized module so
    differentials keep a pristine baseline. *)
let create ?(engine = Fused) ?(elide = true) ?(tile = 0) ?(specialize = true)
    (gen : Codegen.Kernel.t) ~(ncells : int) ~(dt : float) : t =
  if ncells <= 0 then fail "ncells must be positive";
  if dt <= 0.0 then fail "dt must be positive";
  if tile < 0 then fail "tile must be non-negative";
  let cfg = gen.Codegen.Kernel.cfg in
  let w = cfg.Codegen.Config.width in
  (* pad the cell count so every vector chunk is full (openCARP pads its
     state arrays the same way) *)
  let ncells_pad = (ncells + w - 1) / w * w in
  (* specialize before anything downstream: bounds proofs, tile planning
     and compilation must all see the module that will actually run *)
  let specialize = specialize && engine <> Reference in
  let gen =
    if specialize then Codegen.Cache.specialize gen ~dt ~ncells_pad else gen
  in
  (* the native engine resolves its machine-code artifact eagerly so a
     missing/failing toolchain degrades here — once, with a warning, to
     the batched engine — rather than raising later inside a worker *)
  let engine, native =
    match engine with
    | Native -> (
        match Codegen.Cache.native gen with
        | Ok lookup -> (Native, Some lookup)
        | Error diag ->
            prerr_endline
              (Easyml.Diag.to_string ~file:gen.Codegen.Kernel.model.M.name diag);
            (Batched, None))
    | e -> (e, None)
  in
  let layout = cfg.Codegen.Config.layout in
  let nvars = max 1 gen.Codegen.Kernel.nvars in
  let sv =
    Rt.buffer (Runtime.Layout.size layout ~nvars ~ncells:ncells_pad)
  in
  let exts =
    List.map
      (fun name -> (name, Rt.buffer ncells_pad))
      gen.Codegen.Kernel.ext_order
  in
  let params_buf =
    if gen.Codegen.Kernel.param_order = [] then None
    else Some (Rt.buffer (List.length gen.Codegen.Kernel.param_order))
  in
  let tables =
    List.map
      (fun (plan : Easyml.Lut_cones.t) ->
        let spec = plan.Easyml.Lut_cones.spec in
        Rt.buffer
          (max 1 (M.lut_rows spec * Easyml.Lut_cones.n_columns plan)))
      gen.Codegen.Kernel.lut_plans
  in
  let registry = make_registry () in
  (* proofs run on the module that will execute: op ids differ between
     the base and specialized clones, so the proved set must match *)
  let proved =
    if elide then Kernel_facts.prove_bounds gen ~ncells_pad
    else Hashtbl.create 1
  in
  if specialize then
    Obs.Tracer.count
      ("specialize.guards_elided:" ^ gen.Codegen.Kernel.model.M.name)
      (float_of_int (Hashtbl.length proved));
  (* resolve the tile size once (planning is deterministic, so this is
     exactly what compilation will pick); parallel chunking aligns to it *)
  let tile =
    match engine with
    | Batched ->
        let requested = if tile <> 0 then tile else cfg.Codegen.Config.tile in
        Exec.Batched.plan_tile ~tile:requested gen.Codegen.Kernel.modl
          ~name:Codegen.Kernel.compute_name
    | Fused | Compiled | Reference | Native -> 1
  in
  let d =
    {
      gen;
      ncells;
      ncells_pad;
      dt;
      sv;
      exts;
      params_buf;
      tables;
      engine;
      tile;
      specialized = specialize;
      native;
      registry;
      proved;
      runners = [||];
      rows = [||];
      t_now = 0.0;
      steps_done = 0;
      health = None;
    }
  in
  reset d;
  d

(** {!create} through the shared compile cache: generate (or reuse) the
    kernel for [model] under [cfg] via {!Codegen.Cache}, then build the
    driver.  Repeated drivers for the same model × config skip codegen
    entirely. *)
let create_cached ?engine ?elide ?tile ?specialize ?optimize
    (cfg : Codegen.Config.t) (model : M.t) ~(ncells : int) ~(dt : float) : t =
  create ?engine ?elide ?tile ?specialize
    (Codegen.Cache.generate ?optimize cfg model)
    ~ncells ~dt

(* ------------------------------------------------------------------ *)
(* Numerical-health monitoring                                         *)
(* ------------------------------------------------------------------ *)

(** Attach a health monitor: streaming min/max/mean, NaN/Inf counts and
    clamp-violation counters per state variable plus a membrane-potential
    watchdog, sampled inside the compute stage's chunks on the sampling
    Domain.  Gates (Rush-Larsen / Sundnes / markov_be states — occupancy
    semantics, must stay in [0,1]) get range checking; the default
    [warn] sink prints each trip once through {!Easyml.Diag}. *)
let enable_health ?(cfg = Obs.Health.default_config) ?warn (d : t) : unit =
  let model = d.gen.Codegen.Kernel.model in
  let layout =
    match d.gen.Codegen.Kernel.cfg.Codegen.Config.layout with
    | Runtime.Layout.AoS -> Obs.Health.Cell_major
    | Runtime.Layout.SoA -> Obs.Health.Var_major
    | Runtime.Layout.AoSoA w -> Obs.Health.Blocked w
  in
  let is_gate = function
    | M.RushLarsen | M.Sundnes | M.MarkovBE -> true
    | M.FE | M.RK2 | M.RK4 -> false
  in
  let vars =
    List.map
      (fun (name, k) ->
        let gate =
          match M.find_state model name with
          | Some sv -> is_gate sv.M.sv_method
          | None -> false
        in
        { Obs.Health.v_name = name; v_slot = k; v_gate = gate })
      d.gen.Codegen.Kernel.state_index
  in
  let warn =
    match warn with
    | Some w -> w
    | None ->
        fun msg ->
          let diag = Easyml.Diag.make ~code:"health" msg in
          prerr_endline (Easyml.Diag.to_string ~file:model.M.name diag)
  in
  let h =
    Obs.Health.create ~cfg ~model:model.M.name ~layout
      ~nvars:(max 1 d.gen.Codegen.Kernel.nvars) ~ncells_pad:d.ncells_pad ~vars
      ~warn ()
  in
  Obs.Health.set_enabled h true;
  d.health <- Some h

let disable_health (d : t) : unit =
  (match d.health with Some h -> Obs.Health.set_enabled h false | None -> ());
  d.health <- None

let health (d : t) : Obs.Health.t option = d.health

let health_snapshot (d : t) : Obs.Health.snapshot option =
  Option.map Obs.Health.snapshot d.health

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let engines =
  [
    ("fused", Fused); ("batched", Batched); ("native", Native);
    ("closure", Compiled); ("interp", Reference);
  ]

let engine_name (e : engine) : string =
  fst (List.find (fun (_, e') -> e' = e) engines)

(** Snapshot every mutable buffer of this driver into a checkpoint: the
    state variables (in whatever layout the config picked), every
    external array, the parameter buffer, the step index and the
    simulation clock.  Lookup tables are {e not} captured — {!reset}
    rebuilds them deterministically from [dt], which the metadata pins
    bit-exactly — so a restored driver is bitwise indistinguishable from
    one that never stopped. *)
let capture (d : t) : Obs.Recorder.checkpoint =
  let cfg = d.gen.Codegen.Kernel.cfg in
  let sections =
    ({ Obs.Recorder.sec_name = "sv"; sec_data = Float.Array.copy d.sv }
     :: List.map
          (fun (name, buf) ->
            {
              Obs.Recorder.sec_name = "ext:" ^ name;
              sec_data = Float.Array.copy buf;
            })
          d.exts)
    @ (match d.params_buf with
      | None -> []
      | Some b ->
          [ { Obs.Recorder.sec_name = "params"; sec_data = Float.Array.copy b } ])
  in
  {
    Obs.Recorder.ck_meta =
      [
        ("kind", "cell");
        ("model", d.gen.Codegen.Kernel.model.M.name);
        ("config", Codegen.Config.describe cfg);
        ("layout", Runtime.Layout.name cfg.Codegen.Config.layout);
        ("width", string_of_int cfg.Codegen.Config.width);
        ("nvars", string_of_int d.gen.Codegen.Kernel.nvars);
        ("ncells", string_of_int d.ncells);
        ("ncells_pad", string_of_int d.ncells_pad);
        ("dt_bits", Obs.Recorder.hex_of_float d.dt);
        ("engine", engine_name d.engine);
        ("tile", string_of_int d.tile);
        ("specialized", string_of_bool d.specialized);
      ];
    ck_step = d.steps_done;
    ck_time = d.t_now;
    ck_sections = sections;
  }

(** Load a checkpoint into a driver built with the identical model ×
    config × population — anything else is refused with a structured
    diagnostic (wrong buffers silently blitted would be wrong physics,
    not an error message).  Sections this driver does not own (e.g. the
    tissue layer's activation state) are ignored; {!Tissue.Monodomain}
    restores those itself. *)
let restore (d : t) (ck : Obs.Recorder.checkpoint) :
    (unit, Easyml.Diag.t) result =
  let ( let* ) = Result.bind in
  let mismatch fmt =
    Fmt.kstr
      (fun m ->
        Error (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code:"checkpoint-mismatch" m))
      fmt
  in
  let check key actual =
    match Obs.Recorder.meta ck key with
    | Some v when v = actual -> Ok ()
    | Some v -> mismatch "checkpoint has %s=%s, this driver needs %s" key v actual
    | None -> mismatch "checkpoint missing required metadata key %s" key
  in
  let cfg = d.gen.Codegen.Kernel.cfg in
  let* () = check "model" d.gen.Codegen.Kernel.model.M.name in
  let* () = check "config" (Codegen.Config.describe cfg) in
  let* () = check "layout" (Runtime.Layout.name cfg.Codegen.Config.layout) in
  let* () = check "width" (string_of_int cfg.Codegen.Config.width) in
  let* () = check "nvars" (string_of_int d.gen.Codegen.Kernel.nvars) in
  let* () = check "ncells" (string_of_int d.ncells) in
  let* () = check "ncells_pad" (string_of_int d.ncells_pad) in
  let* () = check "dt_bits" (Obs.Recorder.hex_of_float d.dt) in
  let blit name (dst : floatarray) =
    match
      List.find_opt
        (fun s -> s.Obs.Recorder.sec_name = name)
        ck.Obs.Recorder.ck_sections
    with
    | None -> mismatch "checkpoint missing section %s" name
    | Some s ->
        let n = Float.Array.length s.Obs.Recorder.sec_data in
        if n <> Float.Array.length dst then
          mismatch "section %s holds %d value(s), driver buffer holds %d" name
            n (Float.Array.length dst)
        else begin
          Float.Array.blit s.Obs.Recorder.sec_data 0 dst 0 n;
          Ok ()
        end
  in
  let* () = blit "sv" d.sv in
  let* () =
    List.fold_left
      (fun acc (name, buf) ->
        let* () = acc in
        blit ("ext:" ^ name) buf)
      (Ok ()) d.exts
  in
  let* () =
    match d.params_buf with None -> Ok () | Some b -> blit "params" b
  in
  d.t_now <- ck.Obs.Recorder.ck_time;
  d.steps_done <- ck.Obs.Recorder.ck_step;
  Ok ()

(* Make sure we have per-thread kernel instances and row buffers. *)
let ensure_threads (d : t) (nthreads : int) : unit =
  let cur = Array.length d.runners in
  if cur < nthreads then begin
    let extra_runners =
      Array.init (nthreads - cur) (fun _ ->
          make_runner d.engine d.registry ~proved:d.proved ~tile:d.tile
            ~native:d.native d.gen.Codegen.Kernel.modl)
    in
    let extra_rows =
      Array.init (nthreads - cur) (fun _ -> make_rows d.gen)
    in
    d.runners <- Array.append d.runners extra_runners;
    d.rows <- Array.append d.rows extra_rows
  end

let kernel_args (d : t) ~(start : int) ~(stop : int) ~(rows : floatarray list)
    : Rt.v array =
  Array.of_list
    ([
       Rt.I start;
       Rt.I stop;
       Rt.I d.ncells_pad;
       Rt.F d.dt;
       Rt.F d.t_now;
       Rt.M d.sv;
     ]
    @ List.map (fun (_, buf) -> Rt.M buf) d.exts
    @ (match d.params_buf with None -> [] | Some b -> [ Rt.M b ])
    @ List.concat
        (List.map2 (fun table row -> [ Rt.M table; Rt.M row ]) d.tables rows))

(** Run the compute stage once over all cells with [nthreads] domains. *)
let compute_stage ?(nthreads = 1) (d : t) : unit =
  ensure_threads d nthreads;
  let w = width d in
  (* resolve the health probe once per step: [None] when monitoring is
     off or this step is not due, so the hot path pays one atomic load *)
  let probe =
    match d.health with
    | Some h when Obs.Health.due h ~step:d.steps_done -> Some h
    | _ -> None
  in
  let vm_buf =
    match probe with Some _ -> List.assoc_opt "Vm" d.exts | None -> None
  in
  let sample h ~lo ~hi =
    (* clamp to the real cell count: padded lanes mirror real cells and
       would double-count their values *)
    let hi = min hi d.ncells in
    if hi > lo then
      Obs.Tracer.with_span "driver.health" (fun () ->
          Obs.Health.sample_chunk h ~sv:d.sv ~vm:vm_buf ~lo ~hi
            ~step:d.steps_done)
  in
  Obs.Tracer.with_span "driver.compute" (fun () ->
      if nthreads = 1 then begin
        let args =
          kernel_args d ~start:0 ~stop:d.ncells_pad ~rows:d.rows.(0)
        in
        ignore (d.runners.(0) args);
        match probe with
        | Some h -> sample h ~lo:0 ~hi:d.ncells
        | None -> ()
      end
      else
        (* chunk boundaries must be aligned to the vector width, so the
           parallel-for runs over AoSoA blocks rather than cells; for the
           batched engine they additionally align to whole tiles, so no
           domain processes a partial tile in its interior.  Each domain
           uses its own kernel instance and LUT scratch rows (register
           files and tile scratch are not reentrant). *)
        let unit_blocks = match d.engine with Batched -> d.tile | _ -> 1 in
        let uw = unit_blocks * w in
        let nunits = (d.ncells_pad + uw - 1) / uw in
        Runtime.Parallel.parallel_for_chunks ~nthreads ~lo:0 ~hi:nunits
          (fun k ulo uhi ->
            (* runs on the worker domain, so the span lands on that
               domain's track in the trace *)
            Obs.Tracer.with_span "driver.chunk" (fun () ->
                let start = ulo * uw
                and stop = min (uhi * uw) d.ncells_pad in
                if stop > start then begin
                  let args = kernel_args d ~start ~stop ~rows:d.rows.(k) in
                  ignore (d.runners.(k) args);
                  (* reduce this chunk into the worker Domain's own
                     accumulators while its cells are still cache-hot *)
                  match probe with
                  | Some h -> sample h ~lo:start ~hi:stop
                  | None -> ()
                end)));
  match probe with
  | Some h ->
      Obs.Health.note_sampled h;
      (* trips recorded by worker Domains surface here, on the caller:
         [Warn] prints each once, [Abort] raises {!Obs.Health.Tripped} *)
      Obs.Health.enforce h
  | None -> ()

let find_ext_buf (d : t) (name : string) : floatarray =
  match List.assoc_opt name d.exts with
  | Some b -> b
  | None -> fail "model has no external variable %s" name

(** Membrane update with a precomputed stimulus current [s]:
    [Vm += dt * (s - Iion)] on every cell, when the model exposes the
    conventional [Vm]/[Iion] externals.  The phase-split {!run} calls
    this directly with one constant current per phase. *)
let membrane_update_current (d : t) (s : float) : unit =
  match (List.assoc_opt "Vm" d.exts, List.assoc_opt "Iion" d.exts) with
  | Some vm, Some iion ->
      Obs.Tracer.with_span "driver.update" (fun () ->
          for c = 0 to d.ncells - 1 do
            Float.Array.set vm c
              (Float.Array.get vm c
              +. (d.dt *. (s -. Float.Array.get iion c)))
          done;
          (* padded lanes mirror the last real cell so vector math stays
             finite *)
          for c = d.ncells to d.ncells_pad - 1 do
            Float.Array.set vm c (Float.Array.get vm (d.ncells - 1))
          done)
  | _ -> ()

(** Membrane update (solver-stage stand-in for single-cell runs):
    [Vm += dt * (stim(t) - Iion)] on every cell. *)
let membrane_update ?(stim = Stim.none) (d : t) : unit =
  membrane_update_current d (Stim.at stim d.t_now)

(** One full time step: compute stage + membrane update. *)
let step ?(nthreads = 1) ?(stim = Stim.none) (d : t) : unit =
  compute_stage ~nthreads d;
  membrane_update ~stim d;
  d.t_now <- d.t_now +. d.dt;
  d.steps_done <- d.steps_done + 1

(** Like {!step}, returning the wall-clock seconds of the compute stage. *)
let step_timed ?(nthreads = 1) ?(stim = Stim.none) (d : t) : float =
  let t0 = Unix.gettimeofday () in
  compute_stage ~nthreads d;
  let dt_wall = Unix.gettimeofday () -. t0 in
  membrane_update ~stim d;
  d.t_now <- d.t_now +. d.dt;
  d.steps_done <- d.steps_done + 1;
  dt_wall

(** Current simulation time in ms. *)
let time (d : t) : float = d.t_now

(** Advance the clock without running a stage — for callers that drive the
    solver stage themselves (e.g. the tissue example). *)
let tick (d : t) : unit =
  d.t_now <- d.t_now +. d.dt;
  d.steps_done <- d.steps_done + 1

(** Run [steps] time steps; returns wall-clock seconds spent in the compute
    stage (the quantity the paper's figures report).

    On a specialized driver the time loop is split into stimulus phases
    ({!Stim.segments}): within each phase the stimulus current is a
    constant, so the per-step body is branch-free — no pulse-edge test,
    no [Float.rem] phase arithmetic.  The segment plan evaluates the
    schedule at exactly the accumulated times the plain loop would use,
    so both paths are bitwise identical. *)
let run ?(nthreads = 1) ?(stim = Stim.none) ?ckpt (d : t) ~(steps : int) :
    float =
  let total = ref 0.0 in
  (* periodic flight-recorder hook: captures never touch simulation
     state (buffers are copied), so checkpointed runs stay bitwise
     identical to plain ones; the wall-clock cost lands outside the
     compute-stage timing, matching how the bench reports it *)
  let maybe_ckpt () =
    match ckpt with
    | Some w when Obs.Recorder.due w ~step:d.steps_done ->
        Obs.Tracer.with_span "driver.checkpoint" (fun () ->
            ignore (Obs.Recorder.record w (capture d)))
    | _ -> ()
  in
  let phase (s : float) (n : int) : unit =
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      compute_stage ~nthreads d;
      total := !total +. (Unix.gettimeofday () -. t0);
      membrane_update_current d s;
      d.t_now <- d.t_now +. d.dt;
      d.steps_done <- d.steps_done + 1;
      maybe_ckpt ()
    done
  in
  if d.specialized then
    List.iter
      (fun (s, n) -> phase s n)
      (Stim.segments stim ~t0:d.t_now ~dt:d.dt ~steps)
  else
    for _ = 1 to steps do
      let t0 = Unix.gettimeofday () in
      compute_stage ~nthreads d;
      total := !total +. (Unix.gettimeofday () -. t0);
      membrane_update ~stim d;
      d.t_now <- d.t_now +. d.dt;
      d.steps_done <- d.steps_done + 1;
      maybe_ckpt ()
    done;
  !total

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let vm (d : t) (cell : int) : float = Float.Array.get (find_ext_buf d "Vm") cell

(** The raw external buffer ([ncells_pad] entries, padded lanes mirror
    the last real cell) — for solver stages that update Vm in place
    (e.g. the tissue monodomain diffusion step).
    @raise Driver_error when the model has no such external. *)
let ext_buffer (d : t) (name : string) : floatarray = find_ext_buf d name
let ext (d : t) (name : string) (cell : int) : float =
  Float.Array.get (find_ext_buf d name) cell

let state (d : t) (name : string) (cell : int) : float =
  match List.assoc_opt name d.gen.Codegen.Kernel.state_index with
  | None -> fail "model has no state variable %s" name
  | Some k ->
      let cfg = d.gen.Codegen.Kernel.cfg in
      Float.Array.get d.sv
        (Runtime.Layout.index cfg.Codegen.Config.layout
           ~nvars:d.gen.Codegen.Kernel.nvars ~ncells:d.ncells_pad ~cell
           ~var:k)

let set_ext (d : t) (name : string) (cell : int) (v : float) : unit =
  Float.Array.set (find_ext_buf d name) cell v

let set_state (d : t) (name : string) (cell : int) (v : float) : unit =
  match List.assoc_opt name d.gen.Codegen.Kernel.state_index with
  | None -> fail "model has no state variable %s" name
  | Some k ->
      let cfg = d.gen.Codegen.Kernel.cfg in
      Float.Array.set d.sv
        (Runtime.Layout.index cfg.Codegen.Config.layout
           ~nvars:d.gen.Codegen.Kernel.nvars ~ncells:d.ncells_pad ~cell
           ~var:k)
        v

(** Snapshot of every state + assigned external of one cell, for
    differential tests between configurations. *)
let snapshot (d : t) (cell : int) : (string * float) list =
  List.map (fun (n, _) -> (n, state d n cell)) d.gen.Codegen.Kernel.state_index
  @ List.filter_map
      (fun (n, buf) ->
        match M.find_ext d.gen.Codegen.Kernel.model n with
        | Some e when e.M.ext_assigned -> Some (n, Float.Array.get buf cell)
        | _ -> None)
      d.exts
