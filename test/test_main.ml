let () =
  Alcotest.run "limpetmlir"
    [
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("dataflow", Test_dataflow.suite);
      ("race", Test_race.suite);
      ("mmt", Test_mmt.suite);
      ("ir", Test_ir.suite);
      ("engine", Test_engine.suite);
    ("fused", Test_fused.suite);
      ("batched", Test_batched.suite);
      ("passes", Test_passes.suite);
      ("specialize", Test_specialize.suite);
      ("integrators", Test_integrators.suite);
      ("runtime", Test_runtime.suite);
      ("solver", Test_solver.suite);
      ("tissue", Test_tissue.suite);
      ("codegen", Test_codegen.suite);
      ("driver", Test_driver.suite);
      ("models", Test_models.suite);
      ("machine", Test_machine.suite);
      ("obs", Test_obs.suite);
      ("recorder", Test_recorder.suite);
      ("spec", Test_spec.suite);
      ("health", Test_health.suite);
      ("transval", Test_transval.suite);
      ("native", Test_native.suite);
    ]
