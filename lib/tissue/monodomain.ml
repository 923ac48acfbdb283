(** Operator-split monodomain engine: generated ionic kernel × implicit
    diffusion.  See the interface for the splitting conventions. *)

module Driver = Sim.Driver
module Stim = Sim.Stim

type splitting = Godunov | Strang

type config = {
  sigma : float;
  splitting : splitting;
  block_check_ms : float option;
  probes : (int * int) option;
}

let default_config : config =
  { sigma = 0.001; splitting = Godunov; block_check_ms = None; probes = None }

type t = {
  driver : Driver.t;
  geom : Geometry.t;
  cfg : config;
  nthreads : int;
  protocol : Protocol.t;
  pulses : Protocol.pulses;  (* the protocol at the step being taken *)
  op : Diffusion.t;  (* over dt (Godunov) or dt/2 (Strang) *)
  act : Activation.t;
  vm_buf : floatarray;  (* the driver's padded Vm external, in place *)
  iion_buf : floatarray;
  rhs : floatarray;  (* scratch, real cells only *)
  stimulated : bool array;  (* union of the protocol's mask supports *)
  probe_a : int;
  probe_b : int;
  mutable block_checked : bool;
  mutable block_tripped : bool;
}

let default_probes (g : Geometry.t) : int * int =
  let nx = Geometry.nx g in
  let y = Geometry.ny g / 2 in
  let clamp x = max 0 (min (nx - 1) x) in
  ( Geometry.index g ~x:(clamp (nx / 5)) ~y,
    Geometry.index g ~x:(clamp (4 * nx / 5)) ~y )

(* cells any protocol pulse can reach (nonzero mask weight) *)
let stimulated_cells (n : int) (p : Protocol.t) : bool array =
  let s = Array.make n false in
  List.iter
    (fun (sp : Stim.spatial) ->
      match sp.Stim.mask with
      | Stim.Uniform -> Array.fill s 0 n true
      | Stim.Weights w ->
          for i = 0 to min n (Float.Array.length w) - 1 do
            if Float.Array.get w i <> 0.0 then s.(i) <- true
          done)
    p.Protocol.stims;
  s

let create ?engine ?tile ?specialize:(_ : bool option)
    ?(config = default_config) ?(nthreads = 1) (gen : Codegen.Kernel.t)
    ~(geom : Geometry.t) ~(dt : float) ~(protocol : Protocol.t) : t =
  let n = Geometry.cells geom in
  let driver = Driver.create ?engine ?tile gen ~ncells:n ~dt in
  let act = Activation.create ~n () in
  let vm_buf = Driver.ext_buffer driver "Vm" in
  let iion_buf = Driver.ext_buffer driver "Iion" in
  let probe_a, probe_b =
    match config.probes with Some p -> p | None -> default_probes geom
  in
  (* prime the recorder with the initial (resting) potential *)
  Activation.observe act ~t_prev:0.0 ~t_now:0.0 ~vm:vm_buf;
  let m =
    {
      driver;
      geom;
      cfg = config;
      nthreads;
      protocol;
      pulses = Protocol.pulses protocol ~n;
      op =
        Diffusion.assemble geom ~sigma:config.sigma
          ~dt:(match config.splitting with Godunov -> dt | Strang -> dt /. 2.0);
      act;
      vm_buf;
      iion_buf;
      rhs = Float.Array.make n 0.0;
      stimulated = stimulated_cells n protocol;
      probe_a;
      probe_b;
      block_checked = false;
      block_tripped = false;
    }
  in
  (* Set-up leaves the minor heap partly filled with what the run keeps
     (kernel, buffers, operator), and below the allocation pointer lie
     pages the process has never touched.  Collecting here promotes
     those survivors once, as part of set-up, and restarts allocation at
     the top of the minor heap, over pages set-up already touched.
     Stepping would otherwise pay a page fault per fresh 4 KiB page
     (2-6 us each on a VM host) and, at its first minor collection, the
     promotion. *)
  Gc.minor ();
  m

let driver (m : t) = m.driver
let geometry (m : t) = m.geom
let activation (m : t) = m.act
let protocol (m : t) = m.protocol
let time (m : t) = Driver.time m.driver
let probes (m : t) = (m.probe_a, m.probe_b)

let check_block (m : t) : unit =
  match m.cfg.block_check_ms with
  | Some check when (not m.block_checked) && time m >= check ->
      m.block_checked <- true;
      let n = Geometry.cells m.geom in
      let escaped = ref false in
      let first_outside = ref (-1) in
      for i = 0 to n - 1 do
        if not m.stimulated.(i) then begin
          if !first_outside < 0 then first_outside := i;
          if Float.is_finite (Activation.first_time m.act i) then
            escaped := true
        end
      done;
      if (not !escaped) && !first_outside >= 0 then begin
        m.block_tripped <- true;
        match Driver.health m.driver with
        | Some h ->
            Obs.Health.note_block h ~cell:!first_outside
              ~step:m.driver.Driver.steps_done;
            Obs.Health.enforce h
        | None -> ()
      end
  | _ -> ()

exception Solver_failed of Easyml.Diag.t

let first_nonfinite (a : floatarray) : int =
  let rec go i =
    if i >= Float.Array.length a then -1
    else if Float.is_finite (Float.Array.get a i) then go (i + 1)
    else i
  in
  go 0

let cg_diag (m : t) ~(cell : int) (s : Solver.Cg.stats) : Easyml.Diag.t =
  let step = m.driver.Driver.steps_done and t = time m in
  if Float.is_finite s.Solver.Cg.residual then
    Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"cg-max-iters"
      "diffusion CG solve at step %d (t=%g ms) stopped after %d iteration(s) \
       at relative residual %g, short of the tolerance %g"
      step t s.Solver.Cg.iterations s.Solver.Cg.residual Diffusion.cg_tol
  else
    Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"cg-nonfinite"
      "diffusion CG solve at step %d (t=%g ms) has no solution: its \
       residual is not finite%s"
      step t
      (if cell < 0 then ""
       else
         Printf.sprintf " (right-hand side %g at cell %d)"
           (Float.Array.get m.rhs cell) cell)

(* Solve [op x = m.rhs] straight into the driver's Vm; its padded lanes
   then mirror the last real cell, the driver's invariant.  A CG solve
   that stopped short of its tolerance never passes for a solution: with
   a health monitor it is a hard trip, without one the run stops here. *)
let diffuse (m : t) : unit =
  let n = Geometry.cells m.geom in
  Diffusion.solve_into m.op m.rhs ~x:m.vm_buf;
  Float.Array.fill m.vm_buf n
    (Float.Array.length m.vm_buf - n)
    (Float.Array.get m.vm_buf (n - 1));
  match Diffusion.cg_stats m.op with
  | Some s when not (Diffusion.converged s) -> (
      let cell = first_nonfinite m.rhs in
      match Driver.health m.driver with
      | Some h when Obs.Health.enabled h ->
          Obs.Health.note_solver h ~cell ~step:m.driver.Driver.steps_done
            ~residual:s.Solver.Cg.residual;
          Obs.Health.enforce h
      | _ -> raise (Solver_failed (cg_diag m ~cell s)))
  | _ -> ()

(* [dst.(i) <- Vm.(i) + dt·(Istim − Iion.(i))] with the stimulus at the
   pre-step time [t0].  Each pulse is evaluated once; on a step with
   none on, every cell's current is the literal 0.0 that
   [Protocol.current] gives, so the cell loop reads no mask. *)
let exchange (m : t) ~(t0 : float) (dst : floatarray) : unit =
  let n = Geometry.cells m.geom and dt = m.driver.Driver.dt in
  let vm = m.vm_buf and iion = m.iion_buf in
  if Protocol.eval m.pulses ~t:t0 then begin
    let istim = Protocol.currents m.pulses in
    for i = 0 to n - 1 do
      Float.Array.set dst i
        (Float.Array.get vm i
        +. (dt *. (Float.Array.get istim i -. Float.Array.get iion i)))
    done
  end
  else
    for i = 0 to n - 1 do
      Float.Array.set dst i
        (Float.Array.get vm i +. (dt *. (0.0 -. Float.Array.get iion i)))
    done

let step (m : t) : unit =
  let n = Geometry.cells m.geom in
  let t0 = Driver.time m.driver in
  (match m.cfg.splitting with
  | Godunov ->
      (* (1) ionic stage at the current state *)
      Obs.Tracer.with_span "tissue.ionic" (fun () ->
          Driver.compute_stage ~nthreads:m.nthreads m.driver);
      (* (2) exchange: fold reaction and stimulus into the rhs … *)
      Obs.Tracer.with_span "tissue.exchange" (fun () -> exchange m ~t0 m.rhs);
      (* … then (3) the implicit diffusion solve *)
      Obs.Tracer.with_span "tissue.diffusion" (fun () -> diffuse m)
  | Strang ->
      (* (1) implicit diffusion over dt/2 *)
      Obs.Tracer.with_span "tissue.diffusion" (fun () ->
          Float.Array.blit m.vm_buf 0 m.rhs 0 n;
          diffuse m);
      (* (2) full-dt ionic stage + explicit reaction update *)
      Obs.Tracer.with_span "tissue.ionic" (fun () ->
          Driver.compute_stage ~nthreads:m.nthreads m.driver);
      Obs.Tracer.with_span "tissue.exchange" (fun () ->
          exchange m ~t0 m.vm_buf);
      (* (3) implicit diffusion over dt/2 *)
      Obs.Tracer.with_span "tissue.diffusion" (fun () ->
          Float.Array.blit m.vm_buf 0 m.rhs 0 n;
          diffuse m));
  Driver.tick m.driver;
  Activation.observe m.act ~t_prev:t0 ~t_now:(Driver.time m.driver)
    ~vm:m.vm_buf;
  check_block m

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(** Tissue checkpoint: the driver's capture (state variables, Vm and the
    other externals, params, clock) extended with the activation
    detector's state and the conduction-block latches, so a resumed
    tissue run reproduces activation maps and block verdicts exactly —
    not just voltages. *)
let capture (m : t) : Obs.Recorder.checkpoint =
  let ck = Driver.capture m.driver in
  let act_sections, primed = Activation.export_state m.act in
  let ck =
    {
      ck with
      Obs.Recorder.ck_sections =
        ck.Obs.Recorder.ck_sections
        @ List.map
            (fun (name, data) ->
              { Obs.Recorder.sec_name = name; sec_data = data })
            act_sections;
    }
  in
  let ck = Obs.Recorder.set_meta ck "kind" "tissue" in
  let ck = Obs.Recorder.set_meta ck "geometry" (Geometry.describe m.geom) in
  let ck = Obs.Recorder.set_meta ck "act_primed" (string_of_bool primed) in
  let ck =
    Obs.Recorder.set_meta ck "block_checked" (string_of_bool m.block_checked)
  in
  Obs.Recorder.set_meta ck "block_tripped" (string_of_bool m.block_tripped)

let restore (m : t) (ck : Obs.Recorder.checkpoint) :
    (unit, Easyml.Diag.t) result =
  let ( let* ) = Result.bind in
  let mismatch fmt =
    Fmt.kstr
      (fun s ->
        Error
          (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code:"checkpoint-mismatch"
             s))
      fmt
  in
  let* () =
    match Obs.Recorder.meta ck "kind" with
    | Some "tissue" -> Ok ()
    | Some k -> mismatch "checkpoint kind=%s, expected tissue" k
    | None -> mismatch "checkpoint missing kind metadata"
  in
  let* () =
    match Obs.Recorder.meta ck "geometry" with
    | Some g when g = Geometry.describe m.geom -> Ok ()
    | Some g ->
        mismatch "checkpoint geometry %s, this simulation is %s" g
          (Geometry.describe m.geom)
    | None -> mismatch "checkpoint missing geometry metadata"
  in
  let* () = Driver.restore m.driver ck in
  let bool_meta key =
    match Obs.Recorder.meta ck key with
    | Some "true" -> Ok true
    | Some "false" -> Ok false
    | Some v -> mismatch "checkpoint has %s=%s, expected a boolean" key v
    | None -> mismatch "checkpoint missing required metadata key %s" key
  in
  let* primed = bool_meta "act_primed" in
  let* block_checked = bool_meta "block_checked" in
  let* block_tripped = bool_meta "block_tripped" in
  let sections =
    List.map
      (fun s -> (s.Obs.Recorder.sec_name, s.Obs.Recorder.sec_data))
      ck.Obs.Recorder.ck_sections
  in
  let* () =
    match Activation.import_state m.act ~sections ~primed with
    | Ok () -> Ok ()
    | Error msg -> mismatch "activation state: %s" msg
  in
  m.block_checked <- block_checked;
  m.block_tripped <- block_tripped;
  Ok ()

let run ?ckpt (m : t) ~(steps : int) : float =
  let t0 = Unix.gettimeofday () in
  let maybe_ckpt () =
    match ckpt with
    | Some w
      when Obs.Recorder.due w ~step:m.driver.Driver.steps_done ->
        Obs.Tracer.with_span "tissue.checkpoint" (fun () ->
            ignore (Obs.Recorder.record w (capture m)))
    | _ -> ()
  in
  for _ = 1 to steps do
    step m;
    maybe_ckpt ()
  done;
  Unix.gettimeofday () -. t0

let conduction_velocity (m : t) : float option =
  Activation.conduction_velocity m.act m.geom ~from_cell:m.probe_a
    ~to_cell:m.probe_b

let blocked (m : t) : bool = m.block_tripped

let stats (m : t) : Obs.Export.tissue_stats =
  {
    Obs.Export.tt_model =
      m.driver.Driver.gen.Codegen.Kernel.model.Easyml.Model.name;
    tt_cells = Geometry.cells m.geom;
    tt_activated = Activation.activated m.act;
    tt_reactivated = Activation.reactivated m.act;
    tt_block_trips = (if m.block_tripped then 1 else 0);
    tt_cv = conduction_velocity m;
  }
