(* Tissue subsystem tests: spatial stimulus masks, operator-splitting
   order pinning, cross-engine/cross-thread bitwise differentials, the
   conduction-block detector, 2-D reentry induction and the 1-D
   planar-wave conduction-velocity golden. *)

module Stim = Sim.Stim
module Geometry = Tissue.Geometry
module Protocol = Tissue.Protocol
module Diffusion = Tissue.Diffusion
module Activation = Tissue.Activation
module Monodomain = Tissue.Monodomain

let read_file path =
  (* cwd is test/ under `dune runtest` but the repo root under
     `dune exec test/test_main.exe` *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let fixture_model =
  lazy
    (Easyml.Sema.analyze_source ~name:"fast_upstroke"
       (read_file "fixtures/fast_upstroke.easyml"))

let fixture_gen () =
  Codegen.Cache.generate (Codegen.Config.mlir ~width:8)
    (Lazy.force fixture_model)

(* -- spatial stimulus masks ------------------------------------------ *)

(* Step [steps] times of [dt] from 0, as the driver's clock does, and at
   every step time check the once-per-step evaluation against
   [Protocol.current] for every one of [n] cells, bit for bit: a step
   with no pulse on must give every cell the literal 0.0.  Returns the
   number of steps on which some pulse switched on. *)
let check_per_step_current (p : Protocol.t) ~(n : int) ~(dt : float)
    ~(steps : int) : int =
  let e = Protocol.pulses p ~n in
  let bits = Int64.bits_of_float in
  let t = ref 0.0 and was_on = ref false and on_edges = ref 0 in
  for _ = 0 to steps do
    let on = Protocol.eval e ~t:!t in
    if on && not !was_on then incr on_edges;
    was_on := on;
    let currents =
      if on then Protocol.currents e else Float.Array.make n 0.0
    in
    for cell = 0 to n - 1 do
      let want = Protocol.current p ~t:!t ~cell in
      let got = Float.Array.get currents cell in
      if not (Int64.equal (bits want) (bits got)) then
        Alcotest.failf "%s: per-step current %h <> current %h at t=%h, cell %d"
          p.Protocol.name got want !t cell
    done;
    t := !t +. dt
  done;
  !on_edges

let stim_uniform_bitwise =
  (* The spatial lifting must leave the scalar path untouched: a Uniform
     mask is bit-for-bit the plain [Stim.at] result at every (t, cell),
     including outside the pulse and on period wrap-around. *)
  Helpers.qtest ~count:300 "uniform mask == scalar Stim.at (bitwise)"
    QCheck.(
      quad (float_range 0.0 50.0) (float_range 0.1 10.0)
        (float_range 0.0 400.0) (int_range 0 63))
    (fun (start, duration, t, cell) ->
      let check pulse =
        let s = Stim.uniform pulse in
        let a = Stim.at pulse t and b = Stim.at_cell s ~t ~cell in
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      check (Stim.make ~amplitude:63.5 ~start ~duration ())
      && check (Stim.make ~amplitude:63.5 ~start ~duration ~period:100.0 ()))

let test_stim_region () =
  let pulse = Stim.make ~amplitude:10.0 ~start:0.0 ~duration:5.0 () in
  let s = Stim.region pulse ~n:10 ~lo:2 ~hi:5 in
  for cell = 0 to 9 do
    let want = if cell >= 2 && cell < 5 then 10.0 else 0.0 in
    Helpers.check_close ~tol:0.0 "region weight" want
      (Stim.at_cell s ~t:1.0 ~cell)
  done;
  (* outside the pulse window every cell reads 0 *)
  Alcotest.(check (float 0.0)) "after pulse" 0.0 (Stim.at_cell s ~t:6.0 ~cell:3);
  Alcotest.check_raises "bad region"
    (Invalid_argument "Stim.region: need 0 <= lo <= hi <= n") (fun () ->
      ignore (Stim.region pulse ~n:4 ~lo:2 ~hi:5));
  (* a periodic region pulse summed with a weighted one: every wrap of
     the period is an on and an off edge of the once-per-step path *)
  let paced = Stim.make ~amplitude:80.0 ~start:1.0 ~duration:2.0 ~period:7.0 () in
  let p =
    {
      Protocol.name = "paced";
      stims =
        [
          Stim.region paced ~n:10 ~lo:0 ~hi:3;
          Stim.weighted
            (Stim.make ~amplitude:(-3.5) ~start:4.5 ~duration:0.25 ())
            (Float.Array.init 10 (fun c -> float_of_int c /. 3.0));
        ];
    }
  in
  Alcotest.(check int) "paced: every period and the weighted pulse" 7
    (check_per_step_current p ~n:10 ~dt:0.01 ~steps:3700);
  Alcotest.(check int) "paced alone: every period switches on" 6
    (check_per_step_current
       { p with Protocol.stims = [ List.hd p.Protocol.stims ] }
       ~n:10 ~dt:0.01 ~steps:3700)

(* -- geometry -------------------------------------------------------- *)

let geometry_roundtrip =
  Helpers.qtest ~count:200 "geometry index/coords roundtrip"
    QCheck.(triple (int_range 2 17) (int_range 2 13) (int_range 0 1000))
    (fun (nx, ny, k) ->
      let g = Geometry.sheet ~nx ~ny ~dx:0.01 in
      let cell = k mod Geometry.cells g in
      let x, y = Geometry.coords g cell in
      Geometry.index g ~x ~y = cell)

(* -- diffusion operator ---------------------------------------------- *)

let test_diffusion_residual () =
  (* solve then multiply back: residual at the solver tolerances *)
  List.iter
    (fun geom ->
      let op = Diffusion.assemble geom ~sigma:0.001 ~dt:0.01 in
      let n = Geometry.cells geom in
      let b =
        Float.Array.init n (fun i -> Float.sin (float_of_int i /. 5.0))
      in
      let x = Diffusion.solve op b in
      let ax = Solver.Sparse.mul (Diffusion.matrix op) x in
      for i = 0 to n - 1 do
        Helpers.check_close ~tol:1e-8 "residual" (Float.Array.get b i)
          (Float.Array.get ax i)
      done)
    [ Geometry.cable ~n:40 ~dx:0.01; Geometry.sheet ~nx:12 ~ny:9 ~dx:0.01 ]

let test_diffusion_conserves_flat () =
  (* Neumann boundaries: a flat field is a fixed point of pure diffusion *)
  let geom = Geometry.sheet ~nx:8 ~ny:8 ~dx:0.01 in
  let op = Diffusion.assemble geom ~sigma:0.002 ~dt:0.05 in
  let b = Float.Array.make (Geometry.cells geom) (-80.0) in
  let x = Diffusion.solve op b in
  Float.Array.iter
    (fun v -> Helpers.check_close ~tol:1e-9 "flat fixed point" (-80.0) v)
    x

(* The convergence verdict the monodomain step acts on: a full solve
   converges; a cut iteration budget and a NaN right-hand side do not,
   and the latter returns NaN everywhere rather than the zero start. *)
let test_cg_convergence_verdict () =
  let geom = Geometry.sheet ~nx:8 ~ny:8 ~dx:0.01 in
  let m = Diffusion.matrix (Diffusion.assemble geom ~sigma:0.001 ~dt:0.01) in
  let b = Float.Array.init 64 (fun i -> Float.sin (float_of_int i)) in
  let solve ~max_iters b =
    Solver.Cg.solve ~tol:Diffusion.cg_tol ~max_iters m b
  in
  let _, full = solve ~max_iters:Diffusion.cg_max_iters b in
  let _, cut = solve ~max_iters:1 b in
  Float.Array.set b 3 Float.nan;
  let x, bad = solve ~max_iters:Diffusion.cg_max_iters b in
  Alcotest.(check bool) "full solve converges" true (Diffusion.converged full);
  Alcotest.(check bool) "used-up budget does not" false (Diffusion.converged cut);
  Alcotest.(check bool) "NaN rhs does not" false (Diffusion.converged bad);
  Alcotest.(check bool) "NaN rhs: no zeros handed back" true
    (Float.Array.for_all Float.is_nan x)

(* One NaN in one cell of an 8×8 sheet used to come back from CG as a
   sheet of 0 mV.  The NaN goes in after a clean first step, so the
   stride-16 health sampler is not due and the solver check is what
   fires. *)
let nan_sheet ?health () =
  let geom = Geometry.sheet ~nx:8 ~ny:8 ~dx:0.01 in
  let sim =
    Monodomain.create (fixture_gen ()) ~geom ~dt:0.01
      ~protocol:(Protocol.s1 geom)
  in
  Option.iter (fun enable -> enable (Monodomain.driver sim)) health;
  Monodomain.step sim;
  Float.Array.set (Sim.Driver.ext_buffer (Monodomain.driver sim) "Vm") 3
    Float.nan;
  sim

let test_cg_nan_sheet () =
  (* no monitor: the step stops with a diagnostic naming the cell *)
  (match Monodomain.step (nan_sheet ()) with
  | () -> Alcotest.fail "a NaN right-hand side passed for a solution"
  | exception Monodomain.Solver_failed d ->
      Alcotest.(check string) "code" "cg-nonfinite" d.Easyml.Diag.code;
      Alcotest.(check bool) "names the cell" true
        (Helpers.contains d.Easyml.Diag.message "cell 3"));
  (* abort policy: a hard health trip *)
  let abort d =
    Sim.Driver.enable_health
      ~cfg:{ Obs.Health.default_config with policy = Obs.Health.Abort } d
  in
  (match Monodomain.step (nan_sheet ~health:abort ()) with
  | () -> Alcotest.fail "no health trip"
  | exception Obs.Health.Tripped msg ->
      Alcotest.(check bool) "solver-failure at cell 3" true
        (Helpers.contains msg "reason=solver-failure"
        && Helpers.contains msg "cell=3"));
  (* warn policy: reported and unhealthy, and the sheet reads NaN, not
     0 mV *)
  let warned = ref [] in
  let sim =
    nan_sheet
      ~health:(Sim.Driver.enable_health ~warn:(fun m -> warned := m :: !warned))
      ()
  in
  Monodomain.step sim;
  let d = Monodomain.driver sim in
  Alcotest.(check bool) "unhealthy" true
    (Obs.Health.unhealthy (Option.get (Sim.Driver.health d)));
  Alcotest.(check bool) "warned" true
    (List.exists (fun m -> Helpers.contains m "solver-failure") !warned);
  for i = 0 to 63 do
    if not (Float.is_nan (Sim.Driver.vm d i)) then
      Alcotest.failf "cell %d reads %g after a failed solve" i (Sim.Driver.vm d i)
  done

(* -- activation recorder --------------------------------------------- *)

let test_activation_interpolation () =
  let a = Activation.create ~threshold:(-20.0) ~reset:(-60.0) ~n:1 () in
  let vm v = Float.Array.of_list [ v ] in
  Activation.observe a ~t_prev:0.0 ~t_now:0.0 ~vm:(vm (-80.0));
  Activation.observe a ~t_prev:0.0 ~t_now:1.0 ~vm:(vm (-80.0));
  (* crossing from -40 to 0 between t=1 and t=2: θ=-20 is halfway *)
  Activation.observe a ~t_prev:1.0 ~t_now:2.0 ~vm:(vm (-40.0));
  Activation.observe a ~t_prev:2.0 ~t_now:3.0 ~vm:(vm 0.0);
  Helpers.check_close ~tol:1e-12 "interpolated upstroke" 2.5
    (Activation.first_time a 0);
  Alcotest.(check int) "one activation" 1 (Activation.activated a);
  (* dips below threshold but not below reset: no rearm, no reactivation *)
  Activation.observe a ~t_prev:3.0 ~t_now:4.0 ~vm:(vm (-40.0));
  Activation.observe a ~t_prev:4.0 ~t_now:5.0 ~vm:(vm 0.0);
  Alcotest.(check int) "no rearm above reset" 0 (Activation.reactivations a 0);
  (* full repolarization below reset, then a second upstroke: reentry *)
  Activation.observe a ~t_prev:5.0 ~t_now:6.0 ~vm:(vm (-70.0));
  Activation.observe a ~t_prev:6.0 ~t_now:7.0 ~vm:(vm 0.0);
  Alcotest.(check int) "reactivation counted" 1 (Activation.reactivations a 0);
  Alcotest.(check int) "reactivated cells" 1 (Activation.reactivated a)

(* -- monodomain engine ----------------------------------------------- *)

let cable_sim ?engine ?(nthreads = 1) ?(splitting = Monodomain.Godunov)
    ?(n = 60) ?(sigma = 0.001) () =
  let geom = Geometry.cable ~n ~dx:0.01 in
  let config = { Monodomain.default_config with splitting; sigma } in
  Monodomain.create ?engine ~config ~nthreads (fixture_gen ()) ~geom ~dt:0.01
    ~protocol:(Protocol.s1 geom)

let vm_bits (m : Monodomain.t) : Int64.t array =
  let d = Monodomain.driver m in
  let vm = Sim.Driver.ext_buffer d "Vm" in
  Array.init d.Sim.Driver.ncells (fun i ->
      Int64.bits_of_float (Float.Array.get vm i))

let test_splitting_order_godunov () =
  (* Pin the Godunov ordering: (1) ionic stage at the current state,
     (2) rhs = Vm + dt·(Istim(t_pre) − Iion)/Cm, (3) implicit diffusion
     — bitwise identical to a hand-rolled replica. *)
  let n = 16 and dt = 0.01 and sigma = 0.001 in
  let geom = Geometry.cable ~n ~dx:0.01 in
  let proto = Protocol.s1 geom in
  let sim =
    Monodomain.create
      ~config:{ Monodomain.default_config with sigma }
      (fixture_gen ()) ~geom ~dt ~protocol:proto
  in
  let d = Sim.Driver.create (fixture_gen ()) ~ncells:n ~dt in
  let vm = Sim.Driver.ext_buffer d "Vm" in
  let iion = Sim.Driver.ext_buffer d "Iion" in
  let op = Diffusion.assemble geom ~sigma ~dt in
  let rhs = Float.Array.make n 0.0 in
  for _ = 1 to 200 do
    Monodomain.step sim;
    let t0 = Sim.Driver.time d in
    Sim.Driver.compute_stage d;
    for i = 0 to n - 1 do
      Float.Array.set rhs i
        (Float.Array.get vm i
        +. 0.01
           *. (Protocol.current proto ~t:t0 ~cell:i
              -. Float.Array.get iion i))
    done;
    let x = Diffusion.solve op rhs in
    Float.Array.blit x 0 vm 0 n;
    for i = n to Float.Array.length vm - 1 do
      Float.Array.set vm i (Float.Array.get x (n - 1))
    done;
    Sim.Driver.tick d
  done;
  let got = vm_bits sim in
  for i = 0 to n - 1 do
    if not (Int64.equal got.(i) (Int64.bits_of_float (Float.Array.get vm i)))
    then
      Alcotest.failf "godunov order drifted at cell %d: %h vs %h" i
        (Int64.float_of_bits got.(i))
        (Float.Array.get vm i)
  done

let test_splitting_order_strang () =
  (* Pin the Strang ordering: half diffusion, full ionic stage plus the
     explicit reaction update, half diffusion. *)
  let n = 16 and dt = 0.01 and sigma = 0.001 in
  let geom = Geometry.cable ~n ~dx:0.01 in
  let proto = Protocol.s1 geom in
  let sim =
    Monodomain.create
      ~config:
        { Monodomain.default_config with sigma; splitting = Monodomain.Strang }
      (fixture_gen ()) ~geom ~dt ~protocol:proto
  in
  let d = Sim.Driver.create (fixture_gen ()) ~ncells:n ~dt in
  let vm = Sim.Driver.ext_buffer d "Vm" in
  let iion = Sim.Driver.ext_buffer d "Iion" in
  let op_half = Diffusion.assemble geom ~sigma ~dt:(dt /. 2.0) in
  let rhs = Float.Array.make n 0.0 in
  let half () =
    Float.Array.blit vm 0 rhs 0 n;
    let x = Diffusion.solve op_half rhs in
    Float.Array.blit x 0 vm 0 n;
    for i = n to Float.Array.length vm - 1 do
      Float.Array.set vm i (Float.Array.get x (n - 1))
    done
  in
  for _ = 1 to 200 do
    Monodomain.step sim;
    let t0 = Sim.Driver.time d in
    half ();
    Sim.Driver.compute_stage d;
    for i = 0 to n - 1 do
      Float.Array.set vm i
        (Float.Array.get vm i
        +. 0.01
           *. (Protocol.current proto ~t:t0 ~cell:i
              -. Float.Array.get iion i))
    done;
    half ();
    Sim.Driver.tick d
  done;
  let got = vm_bits sim in
  for i = 0 to n - 1 do
    if not (Int64.equal got.(i) (Int64.bits_of_float (Float.Array.get vm i)))
    then
      Alcotest.failf "strang order drifted at cell %d: %h vs %h" i
        (Int64.float_of_bits got.(i))
        (Float.Array.get vm i)
  done

let run_cable (sim : Monodomain.t) ~steps =
  ignore (Monodomain.run sim ~steps);
  sim

let assert_same_trajectory name a b =
  let ba = vm_bits a and bb = vm_bits b in
  Array.iteri
    (fun i va ->
      if not (Int64.equal va bb.(i)) then
        Alcotest.failf "%s: Vm differs at cell %d" name i)
    ba;
  let aa = Monodomain.activation a and ab = Monodomain.activation b in
  for i = 0 to Array.length ba - 1 do
    if not (Helpers.same_float (Activation.first_time aa i)
              (Activation.first_time ab i))
    then Alcotest.failf "%s: activation time differs at cell %d" name i
  done

(* A step reuses every buffer it writes.  After warm-up, a Godunov step on
   a 512-node cable (Thomas) and on a 24×24 sheet (CG) adds almost
   nothing to the major heap: one per-step array of the population's
   size would be over 256 words, which go straight to the major heap.
   The steps run on this domain, so its own counters measure them;
   [Gc.quick_stat] also adds the figures other domains last reported,
   and the parked workers of an earlier multi-threaded test moved those
   by up to 15 K words over the 200 steps. *)
let test_step_major_heap () =
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  List.iter
    (fun geom ->
      let sim =
        Monodomain.create ~engine:Sim.Driver.Batched (fixture_gen ()) ~geom
          ~dt:0.01 ~protocol:(Protocol.s1 geom)
      in
      for _ = 1 to 50 do
        Monodomain.step sim
      done;
      (* promote what set-up left young, so only the steps are counted *)
      Gc.minor ();
      let before = major_words () in
      for _ = 1 to 200 do
        Monodomain.step sim
      done;
      let per_step = (major_words () -. before) /. 200.0 in
      if per_step >= 64.0 then
        Alcotest.failf "%s: %.1f major-heap words per step"
          (Geometry.describe geom) per_step)
    [ Geometry.cable ~n:512 ~dx:0.01; Geometry.sheet ~nx:24 ~ny:24 ~dx:0.01 ]

let test_engines_bitwise () =
  let steps = 2000 in
  let closure = run_cable (cable_sim ~engine:Sim.Driver.Compiled ()) ~steps in
  let batched = run_cable (cable_sim ~engine:Sim.Driver.Batched ()) ~steps in
  assert_same_trajectory "closure vs batched" closure batched

let test_threads_bitwise () =
  let steps = 2000 in
  let t1 = run_cable (cable_sim ~nthreads:1 ()) ~steps in
  let t2 = run_cable (cable_sim ~nthreads:2 ()) ~steps in
  assert_same_trajectory "1T vs 2T" t1 t2

(* ordered-int ULP distance (same sign assumed; 0 for exact equality) *)
let ulp_diff (a : float) (b : float) : int64 =
  if Float.equal a b then 0L
  else
    let key f =
      let i = Int64.bits_of_float f in
      if Int64.compare i 0L >= 0 then i else Int64.sub Int64.min_int i
    in
    Int64.abs (Int64.sub (key a) (key b))

let test_native_ulp_bound () =
  (* The native (JIT-C) engine is documented to stay within 2 ULP of the
     interpreted engines per step; in practice it is bitwise identical.
     Skipped when no C toolchain is available (the driver degrades to
     batched, already covered above). *)
  match Exec.Native.toolchain () with
  | None -> ()
  | Some _ ->
      let steps = 2000 in
      let native = cable_sim ~engine:Sim.Driver.Native () in
      if
        (Monodomain.driver native).Sim.Driver.engine <> Sim.Driver.Native
      then ()
      else begin
        ignore (Monodomain.run native ~steps);
        let batched = run_cable (cable_sim ()) ~steps in
        let vf = Sim.Driver.ext_buffer (Monodomain.driver batched) "Vm" in
        let vn = Sim.Driver.ext_buffer (Monodomain.driver native) "Vm" in
        for i = 0 to 59 do
          let d = ulp_diff (Float.Array.get vf i) (Float.Array.get vn i) in
          if Int64.compare d 2L > 0 then
            Alcotest.failf "native Vm off by %Ld ULP at cell %d" d i
        done;
        match
          ( Monodomain.conduction_velocity batched,
            Monodomain.conduction_velocity native )
        with
        | Some a, Some b -> Helpers.check_close ~tol:1e-6 "native CV" a b
        | _ -> Alcotest.fail "both engines must measure a CV"
      end

let test_monotone_activation () =
  let sim = run_cable (cable_sim ~n:100 ()) ~steps:6000 in
  let act = Monodomain.activation sim in
  Alcotest.(check int) "full capture" 100 (Activation.activated act);
  (* beyond the stimulated strip the planar wave arrives strictly later
     at each successive cell *)
  for i = 6 to 98 do
    let ta = Activation.first_time act i
    and tb = Activation.first_time act (i + 1) in
    if not (ta < tb) then
      Alcotest.failf "activation not monotone at cell %d: %g >= %g" i ta tb
  done

let test_cable_cv_golden () =
  (* Deterministic planar-wave regression: the fixture model has no
     transcendentals, so the trajectory is bitwise reproducible and the
     measured CV must match the stored golden to 1e-6 relative (the
     golden file keeps 9 significant digits). *)
  let golden =
    float_of_string (String.trim (read_file "golden/fast_upstroke_cable_cv.txt"))
  in
  let sim = run_cable (cable_sim ~n:100 ()) ~steps:6000 in
  match Monodomain.conduction_velocity sim with
  | None -> Alcotest.fail "planar wave must reach both probes"
  | Some cv -> Helpers.check_close ~tol:1e-6 "golden CV" golden cv

let test_conduction_block_detector () =
  (* σ = 0 decouples the cells: the wave can never leave the stimulated
     strip, so the detector must trip (a hard health trip). *)
  let geom = Geometry.cable ~n:30 ~dx:0.01 in
  let config =
    {
      Monodomain.default_config with
      sigma = 0.0;
      block_check_ms = Some 5.0;
    }
  in
  let sim =
    Monodomain.create ~config (fixture_gen ()) ~geom ~dt:0.01
      ~protocol:(Protocol.s1 geom)
  in
  let warned = ref [] in
  Sim.Driver.enable_health ~warn:(fun m -> warned := m :: !warned)
    (Monodomain.driver sim);
  ignore (Monodomain.run sim ~steps:800);
  Alcotest.(check bool) "detector tripped" true (Monodomain.blocked sim);
  let h = Option.get (Sim.Driver.health (Monodomain.driver sim)) in
  Alcotest.(check bool) "hard trip -> unhealthy" true (Obs.Health.unhealthy h);
  let snap = Obs.Health.snapshot h in
  Alcotest.(check bool) "conduction-block trip recorded" true
    (List.exists
       (fun (t : Obs.Health.trip) ->
         t.Obs.Health.t_reason = Obs.Health.Conduction_block)
       snap.Obs.Health.hs_trips);
  let stats = Monodomain.stats sim in
  Alcotest.(check int) "stats count the trip" 1
    stats.Obs.Export.tt_block_trips

let test_healthy_wave_no_block () =
  let sim =
    let geom = Geometry.cable ~n:60 ~dx:0.01 in
    Monodomain.create
      ~config:{ Monodomain.default_config with block_check_ms = Some 30.0 }
      (fixture_gen ()) ~geom ~dt:0.01 ~protocol:(Protocol.s1 geom)
  in
  Sim.Driver.enable_health (Monodomain.driver sim);
  ignore (Monodomain.run sim ~steps:4000);
  Alcotest.(check bool) "no block" false (Monodomain.blocked sim);
  let h = Option.get (Sim.Driver.health (Monodomain.driver sim)) in
  Alcotest.(check bool) "healthy" false (Obs.Health.unhealthy h)

let test_s1s2_reentry () =
  (* Cross-field S1–S2 on a sheet: the premature S2 meets the S1 wake's
     refractory gradient, blocks unidirectionally and re-excites
     recovered tissue — reactivations well after both stimuli ended. *)
  let geom = Geometry.sheet ~nx:40 ~ny:40 ~dx:0.01 in
  let sim =
    Monodomain.create
      ~config:{ Monodomain.default_config with sigma = 0.0003 }
      (fixture_gen ()) ~geom ~dt:0.01
      ~protocol:(Protocol.s1s2 ~s2_start:65.0 geom)
  in
  ignore (Monodomain.run sim ~steps:12_000);
  let act = Monodomain.activation sim in
  Alcotest.(check int) "sheet fully captured" 1600 (Activation.activated act);
  Alcotest.(check bool) "reentrant reactivation" true
    (Activation.reactivated act > 0);
  (* the spiral re-excites cells long after the S2 (67 ms) ended *)
  let late = ref false in
  for i = 0 to 1599 do
    if
      Activation.reactivations act i > 0
      && Activation.first_time act i < 65.0
    then late := true
  done;
  Alcotest.(check bool) "reactivated cells first activated by S1" true !late

let test_restitution_protocol () =
  (* the pacing train delivers every S1 and the premature S2 *)
  let geom = Geometry.cable ~n:4 ~dx:0.01 in
  let p =
    Protocol.restitution ~amplitude:10.0 ~start:1.0 ~duration:1.0 ~width:2
      ~n_s1:3 ~interval:10.0 ~s2_coupling:5.0 geom
  in
  Alcotest.(check int) "pulse count" 4 (List.length p.Protocol.stims);
  List.iter
    (fun t ->
      Helpers.check_close ~tol:0.0 "stimulated cell sees pulse" 10.0
        (Protocol.current p ~t ~cell:0);
      Helpers.check_close ~tol:0.0 "unstimulated cell silent" 0.0
        (Protocol.current p ~t ~cell:3))
    [ 1.5; 11.5; 21.5; 26.5 ];
  Helpers.check_close ~tol:0.0 "between pulses" 0.0
    (Protocol.current p ~t:8.0 ~cell:0);
  (* the once-per-step evaluation the monodomain step uses equals
     [Protocol.current] at every step time, on a cable and on a sheet *)
  List.iter
    (fun geom ->
      let n = Geometry.cells geom in
      let per_step p = check_per_step_current p ~n ~dt:0.01 ~steps:3500 in
      Alcotest.(check int) "s1 switches on once" 1
        (per_step (Protocol.s1 ~width:2 geom));
      Alcotest.(check int) "s1s2 switches on twice" 2
        (per_step (Protocol.s1s2 ~width:2 ~s2_start:20.0 geom));
      Alcotest.(check int) "restitution switches on per pulse" 4
        (per_step
           (Protocol.restitution ~amplitude:10.0 ~start:1.0 ~duration:1.0
              ~width:2 ~n_s1:3 ~interval:10.0 ~s2_coupling:5.0 geom)))
    [ Geometry.cable ~n:6 ~dx:0.01; Geometry.sheet ~nx:6 ~ny:5 ~dx:0.01 ]

let test_prometheus_tissue_families () =
  let sim = run_cable (cable_sim ~n:40 ()) ~steps:3000 in
  let text =
    Obs.Export.prometheus ~tissue:(Monodomain.stats sim)
      (Obs.Tracer.snapshot ())
  in
  (match Obs.Export.validate_prometheus text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tissue exposition invalid: %s" e);
  List.iter
    (fun family ->
      Alcotest.(check bool) family true (Helpers.contains text family))
    [
      "limpetmlir_tissue_cells";
      "limpetmlir_tissue_activated_cells";
      "limpetmlir_tissue_activation_coverage";
      "limpetmlir_tissue_reactivated_cells";
      "limpetmlir_tissue_conduction_block_total";
      "limpetmlir_tissue_conduction_velocity_cm_ms";
    ]

let test_activation_map_output () =
  let sim = run_cable (cable_sim ~n:20 ()) ~steps:2500 in
  let act = Monodomain.activation sim in
  let geom = Monodomain.geometry sim in
  let csv = Activation.to_csv act geom in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows" 21 (List.length lines);
  Alcotest.(check string) "csv header" "cell,x,y,activation_ms,reactivations"
    (List.hd lines);
  let json =
    Activation.to_json ?cv:(Monodomain.conduction_velocity sim) act geom
  in
  Alcotest.(check bool) "json has activation array" true
    (Helpers.contains json "\"activation_ms\"");
  Alcotest.(check bool) "json has cv" true
    (Helpers.contains json "\"conduction_velocity_cm_ms\"")

(* The exchange evaluates the stimulus without boxing a float per cell:
   on a 64×64 sheet, a step with the S1 pulse on allocates what a step
   with it off allocates, give or take less than a word per 64 cells.
   Off is measured over t ∈ [0.3, 0.9) ms, on over [1.3, 1.9) ms; the
   steps run on this domain, so [Gc.minor_words] counts only them. *)
let test_exchange_minor_words () =
  let geom = Geometry.sheet ~nx:64 ~ny:64 ~dx:0.01 in
  let sim =
    Monodomain.create ~engine:Sim.Driver.Native (fixture_gen ()) ~geom
      ~dt:0.01 ~protocol:(Protocol.s1 geom)
  in
  let steps n =
    for _ = 1 to n do
      Monodomain.step sim
    done
  in
  let words_per_step n =
    let before = Gc.minor_words () in
    steps n;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  steps 30;
  let off = words_per_step 60 in
  steps 40;
  let on = words_per_step 60 in
  if on -. off >= 64.0 then
    Alcotest.failf "pulse on: %.0f minor words per step, off: %.0f" on off

let suite =
  [
    stim_uniform_bitwise;
    Alcotest.test_case "stim region mask" `Quick test_stim_region;
    geometry_roundtrip;
    Alcotest.test_case "diffusion residual (1D+2D)" `Quick
      test_diffusion_residual;
    Alcotest.test_case "diffusion: flat fixed point" `Quick
      test_diffusion_conserves_flat;
    Alcotest.test_case "activation interpolation + rearm" `Quick
      test_activation_interpolation;
    Alcotest.test_case "godunov order pinned" `Quick
      test_splitting_order_godunov;
    Alcotest.test_case "strang order pinned" `Quick
      test_splitting_order_strang;
    Alcotest.test_case "closure == batched (bitwise)" `Quick
      test_engines_bitwise;
    Alcotest.test_case "1 thread == 2 threads (bitwise)" `Quick
      test_threads_bitwise;
    Alcotest.test_case "native within 2 ULP" `Quick test_native_ulp_bound;
    Alcotest.test_case "monotone activation along cable" `Quick
      test_monotone_activation;
    Alcotest.test_case "cable CV matches golden" `Quick test_cable_cv_golden;
    Alcotest.test_case "conduction-block detector" `Quick
      test_conduction_block_detector;
    Alcotest.test_case "healthy wave: no block" `Quick
      test_healthy_wave_no_block;
    Alcotest.test_case "s1s2 induces reentry (2D)" `Slow test_s1s2_reentry;
    Alcotest.test_case "restitution train" `Quick test_restitution_protocol;
    Alcotest.test_case "prometheus tissue families" `Quick
      test_prometheus_tissue_families;
    Alcotest.test_case "activation map output" `Quick
      test_activation_map_output;
    Alcotest.test_case "diffusion: CG convergence verdict" `Quick
      test_cg_convergence_verdict;
    Alcotest.test_case "NaN in an 8x8 sheet stops the solve" `Quick
      test_cg_nan_sheet;
    Alcotest.test_case "step adds nothing to the major heap" `Quick
      test_step_major_heap;
    Alcotest.test_case "stimulus allocates nothing per cell" `Quick
      test_exchange_minor_words;
  ]
