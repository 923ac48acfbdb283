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
  tables : floatarray list;  (** one per lookup plan, row-major *)
  engine : engine;
  tile : int;
      (** resolved batched-engine tile size in vector blocks (1 for the
          other engines); Domain-parallel chunk boundaries align to it *)
  native : (string -> Rt.v array -> Rt.v array) option;
      (** symbol lookup into the JIT-compiled shared object
          ({!Codegen.Cache.native}); [Some] exactly when [engine] is
          {!Native} — each call returns a fresh binding with private
          marshalling buffers, so per-thread runners stay independent *)
  registry : Rt.registry;
  mutable runners : (Rt.v array -> Rt.v array) array;
      (** one compiled kernel instance per thread (engines are not
          reentrant: each has its own register file) *)
  mutable args : Rt.v array array;
      (** each runner's argument vector, over its own LUT row buffers,
          built with the runner; a call rewrites only its chunk bounds
          and the clock *)
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

(* A fresh instance of the driver's module under its engine: one per
   thread for the compute kernel (engines are not reentrant), one per
   {!reset} for the lookup-table initializers.  [Fused] and [Compiled]
   never get here: {!create} resolves both to [Batched]. *)
let compile (d : t) : string -> Rt.v array -> Rt.v array =
  let modl = d.gen.Codegen.Kernel.modl in
  match d.engine with
  | Native -> (
      match d.native with
      | Some lookup -> lookup
      | None -> fail "native engine without a compiled library")
  | Fused | Compiled | Batched ->
      Batched.compile_module ~externs:d.registry ~tile:d.tile modl
  | Reference -> fun name args -> Interp.run ~externs:d.registry modl name args

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
  (* lookup tables *)
  let lookup = compile d in
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
  d.args <- [||];
  d.t_now <- 0.0;
  d.steps_done <- 0

(** [create ?engine gen ~ncells ~dt] builds a driver.  [tile] sets the
    batched engine's tile size in vector blocks (default 0 = auto-size
    for L1); results are bitwise identical for every tile size.  [dt]
    and the padded cell count reach the kernel as arguments, so every
    driver of one model × config shares one kernel. *)
let create ?(engine = Batched) ?(tile = 0) ?specialize:(_ : bool option)
    (gen : Codegen.Kernel.t) ~(ncells : int) ~(dt : float) : t =
  if ncells <= 0 then fail "ncells must be positive";
  if dt <= 0.0 then fail "dt must be positive";
  if tile < 0 then fail "tile must be non-negative";
  let cfg = gen.Codegen.Kernel.cfg in
  let w = cfg.Codegen.Config.width in
  (* pad the cell count so every vector chunk is full (openCARP pads its
     state arrays the same way) *)
  let ncells_pad = (ncells + w - 1) / w * w in
  (* the native engine resolves its machine-code artifact eagerly so a
     missing/failing toolchain degrades here — once, with a warning, to
     the batched engine — rather than raising later inside a worker;
     [Fused] and [Compiled], the names of retired engines, run batched *)
  let engine, native =
    match engine with
    | Native -> (
        match Codegen.Cache.native gen with
        | Ok lookup -> (Native, Some lookup)
        | Error diag ->
            prerr_endline
              (Easyml.Diag.to_string ~file:gen.Codegen.Kernel.model.M.name diag);
            (Batched, None))
    | Fused | Compiled -> (Batched, None)
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
  let tables =
    List.map
      (fun (plan : Easyml.Lut_cones.t) ->
        let spec = plan.Easyml.Lut_cones.spec in
        Rt.buffer
          (max 1 (M.lut_rows spec * Easyml.Lut_cones.n_columns plan)))
      gen.Codegen.Kernel.lut_plans
  in
  let registry = make_registry () in
  (* resolve the tile size once (planning is deterministic, so this is
     exactly what compilation will pick); parallel chunking aligns to it *)
  let tile =
    if engine <> Batched then 1
    else
      Exec.Batched.plan_tile ~tile gen.Codegen.Kernel.modl
        ~name:Codegen.Kernel.compute_name
  in
  let d =
    {
      gen;
      ncells;
      ncells_pad;
      dt;
      sv;
      exts;
      tables;
      engine;
      tile;
      native;
      registry;
      runners = [||];
      args = [||];
      t_now = 0.0;
      steps_done = 0;
      health = None;
    }
  in
  reset d;
  d

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

let engines = [ ("batched", Batched); ("native", Native); ("interp", Reference) ]

let engine_name : engine -> string = function
  | Batched | Fused | Compiled -> "batched"
  | Native -> "native"
  | Reference -> "interp"

(** Snapshot every mutable buffer of this driver into a checkpoint: the
    state variables (in whatever layout the config picked), every
    external array, the step index and the simulation clock.  Lookup
    tables are {e not} captured — {!reset} rebuilds them
    deterministically from [dt], which the metadata pins bit-exactly —
    so a restored driver is bitwise indistinguishable from one that
    never stopped. *)
let capture (d : t) : Obs.Recorder.checkpoint =
  let cfg = d.gen.Codegen.Kernel.cfg in
  let sections =
    { Obs.Recorder.sec_name = "sv"; sec_data = Float.Array.copy d.sv }
    :: List.map
         (fun (name, buf) ->
           {
             Obs.Recorder.sec_name = "ext:" ^ name;
             sec_data = Float.Array.copy buf;
           })
         d.exts
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
  d.t_now <- ck.Obs.Recorder.ck_time;
  d.steps_done <- ck.Obs.Recorder.ck_step;
  Ok ()

(* A runner's argument vector, over fresh LUT row buffers.  Slots 0, 1
   and 4 ([start], [stop], [t_now]) are rewritten before every call. *)
let kernel_args (d : t) : Rt.v array =
  Array.of_list
    ([
       Rt.I 0;
       Rt.I d.ncells_pad;
       Rt.I d.ncells_pad;
       Rt.F d.dt;
       Rt.F d.t_now;
       Rt.M d.sv;
     ]
    @ List.map (fun (_, buf) -> Rt.M buf) d.exts
    @ List.concat
        (List.map2
           (fun table row -> [ Rt.M table; Rt.M row ])
           d.tables (make_rows d.gen)))

(* Make sure we have per-thread kernel instances and their arguments. *)
let ensure_threads (d : t) (nthreads : int) : unit =
  let cur = Array.length d.runners in
  if cur < nthreads then begin
    let extra_runners =
      Array.init (nthreads - cur) (fun _ -> compile d Codegen.Kernel.compute_name)
    in
    let extra_args = Array.init (nthreads - cur) (fun _ -> kernel_args d) in
    d.runners <- Array.append d.runners extra_runners;
    d.args <- Array.append d.args extra_args
  end

(* Thread [k]'s kernel instance over cells [start, stop), then, when the
   health probe is due, its sample of those cells. *)
let run_chunk (d : t) (k : int) ~(start : int) ~(stop : int)
    (probe : Obs.Health.t option) (vm_buf : floatarray option) : unit =
  let args = d.args.(k) in
  args.(0) <- Rt.I start;
  args.(1) <- Rt.I stop;
  args.(4) <- Rt.F d.t_now;
  ignore (d.runners.(k) args);
  match probe with
  | None -> ()
  | Some h ->
      (* clamp to the real cell count: padded lanes mirror real cells and
         would double-count their values *)
      let hi = min stop d.ncells in
      if hi > start then
        Obs.Tracer.with_span "driver.health" (fun () ->
            Obs.Health.sample_chunk h ~sv:d.sv ~vm:vm_buf ~lo:start ~hi
              ~step:d.steps_done)

let compute_chunks (d : t) ~(nthreads : int) (probe : Obs.Health.t option)
    (vm_buf : floatarray option) : unit =
  if nthreads = 1 then run_chunk d 0 ~start:0 ~stop:d.ncells_pad probe vm_buf
  else
    (* chunk boundaries must be aligned to the vector width, so the
       parallel-for runs over AoSoA blocks rather than cells; for the
       batched engine they additionally align to whole tiles, so no
       domain processes a partial tile in its interior.  Each domain
       uses its own kernel instance and LUT scratch rows (register
       files and tile scratch are not reentrant). *)
    let unit_blocks = match d.engine with Batched -> d.tile | _ -> 1 in
    let uw = unit_blocks * width d in
    let nunits = (d.ncells_pad + uw - 1) / uw in
    Runtime.Parallel.parallel_for_chunks ~nthreads ~lo:0 ~hi:nunits
      (fun k ulo uhi ->
        (* runs on the worker domain, so the span lands on that
           domain's track in the trace *)
        Obs.Tracer.with_span "driver.chunk" (fun () ->
            let start = ulo * uw and stop = min (uhi * uw) d.ncells_pad in
            (* the sample reduces this chunk into the worker Domain's
               own accumulators while its cells are still cache-hot *)
            if stop > start then run_chunk d k ~start ~stop probe vm_buf))

(** Run the compute stage once over all cells with [nthreads] domains. *)
let compute_stage ?(nthreads = 1) (d : t) : unit =
  ensure_threads d nthreads;
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
  (* untraced, no span closure: a single-domain stage then allocates
     only the kernel arguments [run_chunk] rewrites *)
  if Obs.Tracer.enabled () then
    Obs.Tracer.with_span "driver.compute" (fun () ->
        compute_chunks d ~nthreads probe vm_buf)
  else compute_chunks d ~nthreads probe vm_buf;
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

(** Membrane update (solver-stage stand-in for single-cell runs):
    [Vm += dt * (stim(t) - Iion)] on every cell, when the model exposes
    the conventional [Vm]/[Iion] externals. *)
let membrane_update ?(stim = Stim.none) (d : t) : unit =
  match (List.assoc_opt "Vm" d.exts, List.assoc_opt "Iion" d.exts) with
  | Some vm, Some iion ->
      let s = Stim.at stim d.t_now in
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
    stage (the quantity the paper's figures report). *)
let run ?(nthreads = 1) ?(stim = Stim.none) ?ckpt (d : t) ~(steps : int) :
    float =
  let total = ref 0.0 in
  for _ = 1 to steps do
    total := !total +. step_timed ~nthreads ~stim d;
    (* periodic flight-recorder hook: captures never touch simulation
       state (buffers are copied), so checkpointed runs stay bitwise
       identical to plain ones; the wall-clock cost lands outside the
       compute-stage timing, matching how the bench reports it *)
    match ckpt with
    | Some w when Obs.Recorder.due w ~step:d.steps_done ->
        Obs.Tracer.with_span "driver.checkpoint" (fun () ->
            ignore (Obs.Recorder.record w (capture d)))
    | _ -> ()
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
