(* Simulation-driver tests: initialization, reset, padding, accessors,
   determinism, per-thread kernel instances, timed stepping, the
   checkpointing time loop. *)

module K = Codegen.Kernel
module C = Codegen.Config

let entry = lazy (Models.Registry.find_exn "BeelerReuter")
let gen8 = lazy (K.generate (C.mlir ~width:8) (Models.Registry.model (Lazy.force entry)))

let test_initial_state () =
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:10 ~dt:0.01 in
  let m = Models.Registry.model (Lazy.force entry) in
  List.iter
    (fun (sv : Easyml.Model.state_var) ->
      for c = 0 to 9 do
        Helpers.fcheck (sv.sv_name ^ " init") sv.sv_init
          (Sim.Driver.state d sv.sv_name c)
      done)
    m.states;
  Helpers.fcheck "Vm init" (-84.57) (Sim.Driver.vm d 0);
  Helpers.fcheck "time starts at 0" 0.0 (Sim.Driver.time d)

let test_padding () =
  (* 10 cells at width 8 pad to 16; padded lanes must not corrupt results *)
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:10 ~dt:0.01 in
  Alcotest.(check int) "padded" 16 d.Sim.Driver.ncells_pad;
  let d1 = Sim.Driver.create (Lazy.force gen8) ~ncells:16 ~dt:0.01 in
  let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 () in
  for _ = 1 to 100 do
    Sim.Driver.step ~stim d;
    Sim.Driver.step ~stim d1
  done;
  for c = 0 to 9 do
    if not (Helpers.same_float (Sim.Driver.vm d c) (Sim.Driver.vm d1 c)) then
      Alcotest.failf "padding changed cell %d" c
  done

let test_reset_reproducible () =
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:4 ~dt:0.01 in
  let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 () in
  for _ = 1 to 50 do
    Sim.Driver.step ~stim d
  done;
  let snap1 = Sim.Driver.snapshot d 2 in
  Sim.Driver.reset d;
  Helpers.fcheck "time reset" 0.0 (Sim.Driver.time d);
  for _ = 1 to 50 do
    Sim.Driver.step ~stim d
  done;
  List.iter2
    (fun (n, a) (_, b) ->
      if not (Helpers.same_float a b) then
        Alcotest.failf "reset not reproducible on %s" n)
    snap1 (Sim.Driver.snapshot d 2)

let test_rerun_identical_trace () =
  (* re-run hygiene: reset + identical stepping must reproduce both the
     results and the exact trace event sequence — no counter or state
     leaks between consecutive runs of one driver *)
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:4 ~dt:0.01 in
  let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 () in
  let run () =
    Obs.Tracer.reset ();
    Obs.Tracer.enable ();
    Sim.Driver.reset d;
    for _ = 1 to 30 do
      Sim.Driver.step ~stim d
    done;
    Obs.Tracer.disable ();
    let s = Obs.Tracer.snapshot () in
    let seq =
      List.map
        (fun (e : Obs.Tracer.event) -> (e.Obs.Tracer.ev_kind, e.Obs.Tracer.ev_name))
        s.Obs.Tracer.events
    in
    ((seq, s.Obs.Tracer.counters), Sim.Driver.snapshot d 2)
  in
  let (seq1, ctr1), snap1 = run () in
  let (seq2, ctr2), snap2 = run () in
  Alcotest.(check int) "same event count" (List.length seq1) (List.length seq2);
  if seq1 <> seq2 then Alcotest.fail "trace event sequences differ across runs";
  Alcotest.(check (list (pair string (float 1e-9))))
    "same counters" ctr1 ctr2;
  List.iter2
    (fun (n, a) (_, b) ->
      if not (Helpers.same_float a b) then
        Alcotest.failf "re-run changed %s: %.17g vs %.17g" n a b)
    snap1 snap2;
  Obs.Tracer.reset ()

let test_cells_independent () =
  (* perturb one cell; the others must be unaffected (no cross-cell leaks
     through the vector lanes) *)
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:16 ~dt:0.01 in
  Sim.Driver.set_ext d "Vm" 5 (-20.0);
  Sim.Driver.set_state d "m" 5 0.9;
  let d_ref = Sim.Driver.create (Lazy.force gen8) ~ncells:16 ~dt:0.01 in
  for _ = 1 to 50 do
    Sim.Driver.step d;
    Sim.Driver.step d_ref
  done;
  Alcotest.(check bool) "perturbed cell differs" true
    (not (Helpers.same_float (Sim.Driver.vm d 5) (Sim.Driver.vm d_ref 5)));
  (* neighbours in the same vector block (cells 0-7) stay identical *)
  List.iter
    (fun c ->
      if not (Helpers.same_float (Sim.Driver.vm d c) (Sim.Driver.vm d_ref c))
      then Alcotest.failf "cell %d leaked from the perturbed lane" c)
    [ 0; 1; 2; 3; 4; 6; 7; 8; 15 ]

let test_step_timed () =
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:8 ~dt:0.01 in
  let t = Sim.Driver.step_timed d in
  Alcotest.(check bool) "returns a plausible wall time" true
    (t >= 0.0 && t < 5.0);
  Helpers.fcheck "clock advanced" 0.01 (Sim.Driver.time d)

(* [run] is [steps] calls of [step] plus the checkpoint hook: it ends
   bitwise where stepping by hand ends, and records a checkpoint at every
   due step equal by digest to a capture taken by hand at that step *)
let test_run_is_stepping () =
  let steps = 350 and stride = 100 in
  let stim =
    Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ~period:1.5 ()
  in
  let create () =
    Sim.Driver.create ~engine:Sim.Driver.Batched (Lazy.force gen8) ~ncells:10
      ~dt:0.01
  in
  let digest d = Obs.Recorder.digest (Sim.Driver.capture d) in
  let by_hand = create () in
  let want = ref [] in
  for _ = 1 to steps do
    Sim.Driver.step ~stim by_hand;
    if by_hand.Sim.Driver.steps_done mod stride = 0 then
      want := digest by_hand :: !want
  done;
  Test_recorder.with_temp_dir (fun dir ->
      let w = Obs.Recorder.create_writer ~keep:steps ~dir ~stride () in
      let d = create () in
      ignore (Sim.Driver.run ~stim ~ckpt:w d ~steps);
      Alcotest.(check string) "final state" (digest by_hand) (digest d);
      let recorded =
        Sys.readdir dir |> Array.to_list |> List.sort String.compare
        |> List.map (fun f ->
               match Obs.Recorder.read (Filename.concat dir f) with
               | Ok ck -> Obs.Recorder.digest ck
               | Error e -> Alcotest.failf "%s: %s" f e.Easyml.Diag.message)
      in
      Alcotest.(check int) "one checkpoint per stride" (steps / stride)
        (List.length recorded);
      Alcotest.(check (list string)) "checkpoints" (List.rev !want) recorded)

let test_accessor_errors () =
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:4 ~dt:0.01 in
  (match Sim.Driver.state d "not_a_state" 0 with
  | exception Sim.Driver.Driver_error _ -> ()
  | _ -> Alcotest.fail "unknown state must raise");
  match Sim.Driver.ext d "not_an_ext" 0 with
  | exception Sim.Driver.Driver_error _ -> ()
  | _ -> Alcotest.fail "unknown external must raise"

let test_create_validation () =
  (match Sim.Driver.create (Lazy.force gen8) ~ncells:0 ~dt:0.01 with
  | exception Sim.Driver.Driver_error _ -> ()
  | _ -> Alcotest.fail "ncells = 0 must be rejected");
  match Sim.Driver.create (Lazy.force gen8) ~ncells:4 ~dt:0.0 with
  | exception Sim.Driver.Driver_error _ -> ()
  | _ -> Alcotest.fail "dt = 0 must be rejected"

let test_compute_only_leaves_vm () =
  (* compute_stage must not touch Vm (only the membrane update does) *)
  let d = Sim.Driver.create (Lazy.force gen8) ~ncells:4 ~dt:0.01 in
  let vm0 = Sim.Driver.vm d 0 in
  Sim.Driver.compute_stage d;
  Helpers.fcheck "Vm untouched by compute stage" vm0 (Sim.Driver.vm d 0);
  (* but Iion was written *)
  Alcotest.(check bool) "Iion computed" true
    (Float.abs (Sim.Driver.ext d "Iion" 0) > 0.0)

let test_tension_external () =
  (* models with extra outputs (StressLumens exposes Tension) *)
  let m = Models.Registry.model (Models.Registry.find_exn "StressLumens") in
  let g = K.generate (C.mlir ~width:4) m in
  let d = Sim.Driver.create g ~ncells:4 ~dt:0.01 in
  let stim = Sim.Stim.make ~amplitude:60.0 ~start:0.5 ~duration:2.0 () in
  for _ = 1 to 4000 do
    Sim.Driver.step ~stim d
  done;
  Alcotest.(check bool) "tension develops under pacing" true
    (Sim.Driver.ext d "Tension" 0 > 0.0)

(* [Fused] is the old name of [Batched]: every way of asking for the
   default or for [Fused] builds a batched driver *)
let test_default_engine () =
  let m = Models.Registry.model (Models.Registry.find_exn "MitchellSchaeffer") in
  let g = Codegen.Cache.generate C.baseline m in
  List.iter
    (fun (what, d) ->
      Alcotest.(check string) what "batched"
        (Sim.Driver.engine_name d.Sim.Driver.engine))
    [
      ("create default", Sim.Driver.create g ~ncells:4 ~dt:0.01);
      ("~engine:Fused", Sim.Driver.create ~engine:Sim.Driver.Fused g ~ncells:4 ~dt:0.01);
    ]

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "vector padding" `Quick test_padding;
    Alcotest.test_case "reset reproducible" `Quick test_reset_reproducible;
    Alcotest.test_case "re-run trace identical" `Quick
      test_rerun_identical_trace;
    Alcotest.test_case "cells independent across lanes" `Quick
      test_cells_independent;
    Alcotest.test_case "step_timed" `Quick test_step_timed;
    Alcotest.test_case "run == step loop + checkpoint hook" `Quick
      test_run_is_stepping;
    Alcotest.test_case "accessor errors" `Quick test_accessor_errors;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "compute stage leaves Vm" `Quick
      test_compute_only_leaves_vm;
    Alcotest.test_case "extra output externals" `Quick test_tension_external;
    Alcotest.test_case "driver defaults to batched engine" `Quick
      test_default_engine;
  ]
