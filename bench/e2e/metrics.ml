(** Metric definitions: names, units, direction and regression bounds. *)

type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the base median a metric may worsen by *)
  floor : float;
      (** absolute slack in the metric's unit: a change smaller than this
          is never a regression, however small the base *)
}

(** What a user of [limpetmlir run]/[tissue] sees.  [fail_frac] is gated
    at +0: any failed invocation is a regression.  The time bounds are
    as wide as this benchmark's own repeat runs on a shared 2-vCPU host
    need (README.md, "Stability"); [setup_s] has the widest, so that work
    moved into set-up shows up there first.  Its floor covers the noise
    of spawning [cc] once: a ~0.1 s set-up varies by ~30 ms rep to rep. *)
let end_to_end : def list =
  [
    { name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.20; floor = 0.02 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25; floor = 0.05 };
    { name = "cell_steps_per_s"; unit_ = "1/s"; better = Higher; bound = 0.20; floor = 0.0 };
    { name = "peak_rss_mb"; unit_ = "MiB"; better = Lower; bound = 0.05; floor = 0.0 };
    { name = "fail_frac"; unit_ = "ratio"; better = Lower; bound = 0.0; floor = 0.0 };
  ]

(** Per-layer metrics with their units, in report order.  The first
    group is timed from outside on every rep; the second comes from the
    self time of existing tracer spans in the traced rep. *)
let per_layer : (string * string) list =
  [
    ("easyml.analyze_s", "s");
    ("codegen.generate_s", "s");
    ("codegen.specialize_s", "s");
    ("codegen.kernel_ops", "count");
    ("codegen.spec_kernel_ops", "count");
    ("exec.cc_s", "s");
    ("exec.load_s", "s");
    ("exec.native_hits", "count");
    ("exec.native_misses", "count");
    ("sim.create_s", "s");
    ("tissue.create_s", "s");
    ("sim.compute_s", "s");
    ("sim.update_s", "s");
    ("sim.step_p50_us", "us");
    ("sim.step_p99_us", "us");
    ("tissue.step_s", "s");
    ("obs.capture_s", "s");
    ("obs.write_s", "s");
    ("obs.checkpoints", "count");
    ("obs.checkpoint_bytes", "byte");
    ("obs.digest_s", "s");
    ("machine.predict_s", "s");
    ("proc.overhead_s", "s");
    ("bench.unaccounted_frac", "ratio");
    ("exec.flops_per_cell_step", "flop");
    ("exec.bytes_per_cell_step", "byte");
    ("exec.gflops", "GFLOP/s");
  ]

let traced : (string * string) list =
  List.map (fun p -> ("passes." ^ p ^ "_s", "s")) Child.passes
  @ [
      ("exec.batched_compile_s", "s");
      ("sim.lut_init_s", "s");
      ("tissue.ionic_s", "s");
      ("tissue.exchange_s", "s");
      ("tissue.diffusion_s", "s");
      ("tissue.observe_s", "s");
      ("trace.overhead_frac", "ratio");
      ("trace.dropped", "count");
    ]
