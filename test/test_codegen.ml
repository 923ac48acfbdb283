(* Code-generation tests: every configuration of the generator must produce
   the same simulation results (vectorization and data layouts are
   semantics-preserving), LUT approximation stays within tolerance, the
   generated kernel matches an independent AST-level reference step, and
   the shared compile cache keys and hits correctly. *)

module K = Codegen.Kernel
module C = Codegen.Config

let model_src =
  {|
Vm; .external(); .nodal(); .lookup(-100.0, 100.0, 0.05);
Iion; .external(); .nodal();
m; m_init = 0.05;
h; h_init = 0.6;
n; n_init = 0.32;
Cai; Cai_init = 0.0002;
Vm_init = -65.0;
group{ g_Na = 120.0; E_Na = 50.0; g_K = 36.0; E_K = -77.0;
       g_L = 0.3; E_L = -54.4; }.param();
a_m = (fabs(Vm + 40.0) < 1e-6) ? 1.0
      : 0.1*(Vm + 40.0)/(1.0 - exp(-(Vm + 40.0)/10.0));
b_m = 4.0*exp(-(Vm + 65.0)/18.0);
diff_m = a_m*(1.0 - m) - b_m*m;  m; .method(rush_larsen);
a_h = 0.07*exp(-(Vm + 65.0)/20.0);
b_h = 1.0/(1.0 + exp(-(Vm + 35.0)/10.0));
diff_h = a_h*(1.0 - h) - b_h*h;  h; .method(rk2);
a_n = (fabs(Vm + 55.0) < 1e-6) ? 0.1
      : 0.01*(Vm + 55.0)/(1.0 - exp(-(Vm + 55.0)/10.0));
b_n = 0.125*exp(-(Vm + 65.0)/80.0);
diff_n = a_n*(1.0 - n) - b_n*n;  n; .method(rk4);
I_Na = g_Na*cube(m)*h*(Vm - E_Na);
I_K = g_K*square(square(n))*(Vm - E_K);
I_L = g_L*(Vm - E_L);
diff_Cai = -0.0001*I_L + 0.07*(0.0002 - Cai);
Iion = I_Na + I_K + I_L;
|}

let the_model = lazy (Easyml.Sema.analyze_source ~name:"hhmix" model_src)

let run_config ?(steps = 120) (cfg : C.t) : (string * float) list =
  let g = K.generate cfg (Lazy.force the_model) in
  Ir.Verifier.verify_module_exn g.K.modl;
  let d = Sim.Driver.create g ~ncells:8 ~dt:0.01 in
  let stim = Sim.Stim.make ~amplitude:20.0 ~start:0.2 ~duration:0.5 () in
  for _ = 1 to steps do
    Sim.Driver.step ~stim d
  done;
  Sim.Driver.snapshot d 5 @ [ ("Vm", Sim.Driver.vm d 5) ]

let check_same ?(tol = 0.0) tag ref_snap snap =
  List.iter2
    (fun (name, a) (_, b) ->
      if tol = 0.0 then (
        if not (Helpers.same_float a b) then
          Alcotest.failf "%s: %s differs: %.17g vs %.17g" tag name a b)
      else Helpers.check_close ~tol (tag ^ ":" ^ name) a b)
    ref_snap snap

let test_widths_agree () =
  let reference = run_config C.baseline in
  List.iter
    (fun w -> check_same (Printf.sprintf "width %d" w) reference (run_config (C.mlir ~width:w)))
    [ 2; 4; 8 ]

let test_layouts_agree () =
  let reference = run_config C.baseline in
  List.iter
    (fun layout ->
      check_same
        (Runtime.Layout.name layout)
        reference
        (run_config { (C.mlir ~width:4) with layout }))
    [ Runtime.Layout.AoS; Runtime.Layout.SoA; Runtime.Layout.AoSoA 4;
      Runtime.Layout.AoSoA 8 ]

let test_autovec_agrees () =
  check_same "autovec profile" (run_config C.baseline)
    (run_config (C.autovec ~width:8))

let test_unoptimized_agrees () =
  let m = Lazy.force the_model in
  let run optimize =
    let g = K.generate ~optimize (C.mlir ~width:8) m in
    let d = Sim.Driver.create g ~ncells:4 ~dt:0.01 in
    for _ = 1 to 100 do
      Sim.Driver.step d
    done;
    Sim.Driver.snapshot d 1
  in
  check_same "passes preserve the kernel" (run false) (run true)

let test_lut_tolerance () =
  (* LUT interpolation introduces bounded error; with a 0.05 mV grid over
     smooth rates the trajectory stays close to the exact one *)
  let exact = run_config { C.baseline with use_lut = false } in
  let lut = run_config C.baseline in
  check_same ~tol:1e-3 "LUT approximation" exact lut

let test_lut_spline_tolerance () =
  (* cubic interpolation on a *coarser* table should still beat linear on
     the same coarse table *)
  let coarse src =
    (* widen the table step 0.05 -> 1.0 *)
    let b = Buffer.create (String.length src) in
    let i = ref 0 in
    let n = String.length src in
    while !i < n do
      if !i + 11 <= n && String.sub src !i 11 = "100.0, 0.05" then begin
        Buffer.add_string b "100.0, 1.0";
        i := !i + 11
      end
      else begin
        Buffer.add_char b src.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let m_coarse = Easyml.Sema.analyze_source ~name:"hhmix" (coarse model_src) in
  let exact = run_config { C.baseline with use_lut = false } in
  let run cfg =
    let g = K.generate cfg m_coarse in
    let d = Sim.Driver.create g ~ncells:8 ~dt:0.01 in
    let stim = Sim.Stim.make ~amplitude:20.0 ~start:0.2 ~duration:0.5 () in
    for _ = 1 to 120 do
      Sim.Driver.step ~stim d
    done;
    Sim.Driver.snapshot d 5 @ [ ("Vm", Sim.Driver.vm d 5) ]
  in
  let err snap =
    List.fold_left2
      (fun acc (_, a) (_, b) -> Float.max acc (Float.abs (a -. b)))
      0.0 exact snap
  in
  let e_lin = err (run C.baseline) in
  let e_cub = err (run { C.baseline with lut_spline = true }) in
  Alcotest.(check bool)
    (Printf.sprintf "cubic beats linear on a coarse table (%.2e vs %.2e)" e_cub
       e_lin)
    true (e_cub < e_lin /. 4.0)

let test_lut_spline_vector_agrees () =
  let exact_scalar = run_config { C.baseline with lut_spline = true } in
  check_same "spline vector == spline scalar" exact_scalar
    (run_config { (C.mlir ~width:8) with lut_spline = true })

let test_lut_columns_exist () =
  let m = Lazy.force the_model in
  let g = K.generate C.baseline m in
  (match g.K.lut_plans with
  | [ plan ] ->
      Alcotest.(check bool) "several cones tabulated" true
        (Easyml.Lut_cones.n_columns plan >= 4)
  | _ -> Alcotest.fail "expected one lookup table");
  let g2 = K.generate { C.baseline with use_lut = false } m in
  Alcotest.(check int) "no tables when disabled" 0 (List.length g2.K.lut_plans)

let test_vector_ops_present () =
  let m = Lazy.force the_model in
  let g = K.generate (C.mlir ~width:8) m in
  let printed = Ir.Printer.module_to_string g.K.modl in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " emitted") true (Helpers.contains printed frag))
    [ "vector<8xf64>"; "vector.load"; "vector.store"; "lut_interp_vec"; "scf.parallel" ];
  (* AoSoA layout: no gathers needed *)
  Alcotest.(check bool) "no gather with AoSoA" false
    (Helpers.contains printed "vector.gather");
  let g_aos = K.generate { (C.mlir ~width:8) with layout = Runtime.Layout.AoS } m in
  Alcotest.(check bool) "gathers with AoS" true
    (Helpers.contains (Ir.Printer.module_to_string g_aos.K.modl) "vector.gather")

(* independent reference: step the analyzed model with the AST evaluator
   and compare against the generated scalar kernel without LUT *)
let test_against_ast_reference () =
  let m = Lazy.force the_model in
  let cfg = { C.baseline with use_lut = false } in
  let g = K.generate cfg m in
  let d = Sim.Driver.create g ~ncells:1 ~dt:0.01 in
  (* AST-level state *)
  let state =
    ref
      (List.map (fun (sv : Easyml.Model.state_var) -> (sv.sv_name, sv.sv_init)) m.states
      @ [ ("Vm", -65.0) ])
  in
  let stim_at t = if t >= 0.2 && t < 0.7 then 20.0 else 0.0 in
  let steps = 100 in
  let dt = 0.01 in
  let t = ref 0.0 in
  for _ = 1 to steps do
    (* compute stage at AST level *)
    let env0 = !state @ [ ("dt", dt); ("t", !t) ] in
    let env =
      List.fold_left
        (fun env (x, e) -> (x, Easyml.Eval.eval_alist env e) :: env)
        env0 m.assigns
    in
    let iion = List.assoc "Iion" env in
    let new_states =
      List.map
        (fun (sv : Easyml.Model.state_var) ->
          (sv.sv_name, Easyml.Eval.eval_alist env (Codegen.Integrators.update_expr sv)))
        m.states
    in
    let vm = List.assoc "Vm" !state in
    let vm' = vm +. (dt *. (stim_at !t -. iion)) in
    state := new_states @ [ ("Vm", vm') ];
    (* engine step *)
    Sim.Driver.step ~stim:(Sim.Stim.make ~amplitude:20.0 ~start:0.2 ~duration:0.5 ()) d;
    t := !t +. dt
  done;
  List.iter
    (fun (sv : Easyml.Model.state_var) ->
      Helpers.check_close ~tol:1e-9
        ("reference " ^ sv.sv_name)
        (List.assoc sv.sv_name !state)
        (Sim.Driver.state d sv.sv_name 0))
    m.states;
  Helpers.check_close ~tol:1e-9 "reference Vm" (List.assoc "Vm" !state)
    (Sim.Driver.vm d 0)

let test_multithread_agrees () =
  let m = Lazy.force the_model in
  let g = K.generate (C.mlir ~width:4) m in
  let run nthreads =
    let d = Sim.Driver.create g ~ncells:64 ~dt:0.01 in
    let stim = Sim.Stim.make ~amplitude:20.0 ~start:0.2 ~duration:0.5 () in
    for _ = 1 to 60 do
      Sim.Driver.step ~nthreads ~stim d
    done;
    List.init 64 (fun c -> Sim.Driver.vm d c)
  in
  let s1 = run 1 and s4 = run 4 in
  List.iteri
    (fun c (a, b) ->
      if not (Helpers.same_float a b) then
        Alcotest.failf "cell %d differs across thread counts" c)
    (List.combine s1 s4)

let test_reference_engine_agrees () =
  let m = Lazy.force the_model in
  let g = K.generate (C.mlir ~width:2) m in
  let run engine =
    let d = Sim.Driver.create ~engine g ~ncells:4 ~dt:0.01 in
    for _ = 1 to 25 do
      Sim.Driver.step d
    done;
    Sim.Driver.snapshot d 2
  in
  check_same "interpreter == engine on a kernel" (run Sim.Driver.Batched)
    (run Sim.Driver.Reference)

(* -- compile cache ------------------------------------------------------ *)

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()

let test_cache_hit_bitwise_identical () =
  Codegen.Cache.clear ();
  let m = Models.Registry.model (Models.Registry.find_exn "LuoRudy91") in
  let cfg = C.mlir ~width:4 in
  let g1 = Codegen.Cache.generate cfg m in
  let g2 = Codegen.Cache.generate cfg m in
  let s = Codegen.Cache.stats () in
  Alcotest.(check int) "one miss" 1 s.Codegen.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Codegen.Cache.hits;
  Alcotest.(check bool) "hit returns the same kernel" true (g1 == g2);
  (* a cached kernel must execute bitwise-identically to a fresh compile *)
  let fresh = K.generate cfg m in
  let dc = Sim.Driver.create g2 ~ncells:8 ~dt:0.01 in
  let df = Sim.Driver.create fresh ~ncells:8 ~dt:0.01 in
  for _ = 1 to 50 do
    Sim.Driver.step ~stim dc;
    Sim.Driver.step ~stim df
  done;
  Test_batched.check_snapshots ~ctx:"cached vs fresh"
    (Sim.Driver.snapshot dc 3) (Sim.Driver.snapshot df 3)

let test_cache_distinguishes_configs () =
  Codegen.Cache.clear ();
  let m = Models.Registry.model (Models.Registry.find_exn "MitchellSchaeffer") in
  let g1 = Codegen.Cache.generate C.baseline m in
  let g2 = Codegen.Cache.generate (C.mlir ~width:4) m in
  let g3 = Codegen.Cache.generate ~optimize:false C.baseline m in
  Alcotest.(check bool) "widths are distinct entries" true (g1 != g2);
  Alcotest.(check bool) "pipelines are distinct entries" true (g1 != g3);
  let s = Codegen.Cache.stats () in
  Alcotest.(check int) "three misses, no aliasing" 3 s.Codegen.Cache.misses

let suite =
  [
    Alcotest.test_case "widths 2/4/8 == scalar" `Quick test_widths_agree;
    Alcotest.test_case "layouts agree" `Quick test_layouts_agree;
    Alcotest.test_case "autovec agrees" `Quick test_autovec_agrees;
    Alcotest.test_case "optimization preserves kernel" `Quick
      test_unoptimized_agrees;
    Alcotest.test_case "LUT within tolerance" `Quick test_lut_tolerance;
    Alcotest.test_case "LUT planning" `Quick test_lut_columns_exist;
    Alcotest.test_case "spline LUT beats linear on coarse tables" `Quick
      test_lut_spline_tolerance;
    Alcotest.test_case "spline scalar == spline vector" `Quick
      test_lut_spline_vector_agrees;
    Alcotest.test_case "vector ops emitted" `Quick test_vector_ops_present;
    Alcotest.test_case "matches AST-level reference" `Quick
      test_against_ast_reference;
    Alcotest.test_case "thread counts agree" `Quick test_multithread_agrees;
    Alcotest.test_case "reference engine agrees" `Quick
      test_reference_engine_agrees;
    Alcotest.test_case "cache hit is bitwise-identical" `Quick
      test_cache_hit_bitwise_identical;
    Alcotest.test_case "cache keys on config and pipeline" `Quick
      test_cache_distinguishes_configs;
  ]
