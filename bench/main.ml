(* Benchmark harness: regenerates every figure of the paper (CGO'23,
   limpetMLIR) from this reproduction.

   Sections (run all by default, or pass section names as arguments):
     fig2    single-thread AVX-512 speedup per model
     fig3    32-thread AVX-512 speedup per model
     fig4    class-average execution time vs threads
     fig5    geomean speedup for SSE/AVX2/AVX-512 across threads
     fig6    roofline (operational intensity vs GFlop/s, 32T AVX-512)
     layout  §4.4 data-layout ablation (AoS vs AoSoA)
     lut     §3.4.2 lookup-table ablation (LUT on vs off)
     icc     §5 icc omp-simd auto-vectorization comparison point
     wall    real wall-clock microbenchmarks through the execution engine
             (bechamel; one Test.make per figure-equivalent comparison)

   Workload parameters follow the paper: 8192 cells, 100 000 steps of
   0.01 ms (figures use the calibrated machine model; the host has one
   core and no vector ISA, see DESIGN.md).  The wall-clock section runs
   the real closure-compiled kernels on a scaled-down workload. *)

let cells = 8192
let steps = 100_000
let geo = Perf.Stats.geomean

(* Optional artifact-style CSV output: pass csv=DIR on the command line and
   every figure section also writes DIR/<section>.csv (the original
   artifact's evaluation.sh saves per-figure result files the same way). *)
let csv_dir : string option ref = ref None

let with_csv (section : string) (header : string) (rows : string list) : unit =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (section ^ ".csv") in
      let oc = open_out path in
      output_string oc (header ^ "\n");
      List.iter (fun r -> output_string oc (r ^ "\n")) rows;
      close_out oc;
      Fmt.pr "(wrote %s)@." path

let model e = Models.Registry.model e
let all_models = Models.Registry.all

(* All sections share the process-wide compile cache; repeated
   model × config pairs across sections cost one codegen. *)
let gen (cfg : Codegen.Config.t) (e : Models.Model_def.entry) : Codegen.Kernel.t =
  Codegen.Cache.generate_named cfg ~name:e.name (fun () -> model e)

let base e = gen Codegen.Config.baseline e
let mlir w e = gen (Codegen.Config.mlir ~width:w) e

let seconds g n =
  (Machine.Perfmodel.run_kernel g ~ncells:cells ~steps ~nthreads:n)
    .Machine.Perfmodel.seconds

let speedup ?(w = 8) ?(n = 1) e = seconds (base e) n /. seconds (mlir w e) n

let by_baseline_time (es : Models.Model_def.entry list) =
  List.sort (fun a b -> compare (seconds (base a) 1) (seconds (base b) 1)) es

let cls_tag (e : Models.Model_def.entry) = Models.Model_def.cls_name e.cls
let hr () = print_endline (String.make 72 '-')

(* ------------------------------------------------------------------ *)

let fig2 () =
  hr ();
  let rows = ref [] in
  Fmt.pr "Figure 2: speedup of limpetMLIR vs baseline openCARP, 1 thread,@.";
  Fmt.pr "AVX-512 (width 8).  Models ordered by baseline execution time.@.";
  hr ();
  Fmt.pr "%-22s %-7s %12s %13s %9s@." "model" "class" "baseline(s)" "limpetMLIR(s)"
    "speedup";
  List.iter
    (fun e ->
      let tb = seconds (base e) 1 and tv = seconds (mlir 8 e) 1 in
      rows :=
        Printf.sprintf "%s,%s,%.3f,%.3f,%.4f" e.Models.Model_def.name
          (cls_tag e) tb tv (tb /. tv)
        :: !rows;
      Fmt.pr "%-22s %-7s %12.1f %13.1f %8.2fx@." e.Models.Model_def.name
        (cls_tag e) tb tv (tb /. tv))
    (by_baseline_time all_models);
  with_csv "fig2" "model,class,baseline_s,limpetmlir_s,speedup" (List.rev !rows);
  Fmt.pr "@.geomean (all): %.2fx   [paper: 5.25x]@."
    (geo (List.map (fun e -> speedup e) all_models));
  List.iter
    (fun c ->
      Fmt.pr "geomean (%s): %.2fx@."
        (Models.Model_def.cls_name c)
        (geo (List.map (fun e -> speedup e) (Models.Registry.by_class c))))
    [ Models.Model_def.Small; Medium; Large ]

let fig3 () =
  hr ();
  let rows = ref [] in
  Fmt.pr "Figure 3: speedup on 32 OpenMP threads (32 cores), AVX-512.@.";
  hr ();
  Fmt.pr "%-22s %-7s %12s %13s %9s@." "model" "class" "baseline(s)" "limpetMLIR(s)"
    "speedup";
  List.iter
    (fun e ->
      let tb = seconds (base e) 32 and tv = seconds (mlir 8 e) 32 in
      rows :=
        Printf.sprintf "%s,%s,%.4f,%.4f,%.4f" e.Models.Model_def.name
          (cls_tag e) tb tv (tb /. tv)
        :: !rows;
      Fmt.pr "%-22s %-7s %12.2f %13.2f %8.2fx@." e.Models.Model_def.name
        (cls_tag e) tb tv (tb /. tv))
    (by_baseline_time all_models);
  with_csv "fig3" "model,class,baseline_s,limpetmlir_s,speedup" (List.rev !rows);
  Fmt.pr "@.geomean (all): %.2fx   [paper: 1.93x]@."
    (geo (List.map (fun e -> speedup ~n:32 e) all_models));
  List.iter
    (fun (c, paper) ->
      Fmt.pr "geomean (%s): %.2fx   [paper: %s]@."
        (Models.Model_def.cls_name c)
        (geo (List.map (fun e -> speedup ~n:32 e) (Models.Registry.by_class c)))
        paper)
    [ (Models.Model_def.Small, "0.83x"); (Medium, "1.34x"); (Large, "6.03x") ]

let threads_axis = [ 1; 2; 4; 8; 16; 32 ]

let fig4 () =
  hr ();
  Fmt.pr "Figure 4: average execution time of the three model classes vs@.";
  Fmt.pr "thread count (AVX-512).  Rows: class x version; columns: threads.@.";
  hr ();
  Fmt.pr "%-8s %-10s %s@." "class" "version"
    (String.concat "" (List.map (Printf.sprintf "%9dT") threads_axis));
  List.iter
    (fun c ->
      let es = Models.Registry.by_class c in
      let avg f =
        List.map
          (fun n -> Perf.Stats.mean (List.map (fun e -> f e n) es))
          threads_axis
      in
      Fmt.pr "%-8s %-10s %s@." (Models.Model_def.cls_name c) "baseline"
        (String.concat ""
           (List.map (Printf.sprintf "%10.2f") (avg (fun e n -> seconds (base e) n))));
      Fmt.pr "%-8s %-10s %s@." (Models.Model_def.cls_name c) "limpetMLIR"
        (String.concat ""
           (List.map (Printf.sprintf "%10.2f") (avg (fun e n -> seconds (mlir 8 e) n)))))
    [ Models.Model_def.Small; Medium; Large ];
  Fmt.pr "@.Expected shape: large models scale near-ideally; small models@.";
  Fmt.pr "flatten (sync overhead dominates) and the limpetMLIR advantage@.";
  Fmt.pr "disappears at 32 threads for the small class.@."

let fig5 () =
  hr ();
  Fmt.pr "Figure 5: geomean speedups for SSE / AVX2 / AVX-512 vs threads.@.";
  hr ();
  Fmt.pr "%-9s %s@." "arch"
    (String.concat "" (List.map (Printf.sprintf "%9dT") threads_axis));
  let rows =
    List.map
      (fun w ->
        ( w,
          List.map
            (fun n -> geo (List.map (fun e -> speedup ~w ~n e) all_models))
            threads_axis ))
      [ 2; 4; 8 ]
  in
  List.iter
    (fun (w, sp) ->
      let name = match w with 2 -> "SSE" | 4 -> "AVX2" | _ -> "AVX-512" in
      Fmt.pr "%-9s %s@." name
        (String.concat "" (List.map (Printf.sprintf "%8.2fx") sp)))
    rows;
  with_csv "fig5" "arch,threads,geomean_speedup"
    (List.concat_map
       (fun (w, sp) ->
         let name = match w with 2 -> "SSE" | 4 -> "AVX2" | _ -> "AVX-512" in
         List.map2
           (fun n v -> Printf.sprintf "%s,%d,%.4f" name n v)
           threads_axis sp)
       rows);
  let overall = geo (List.concat_map snd rows) in
  Fmt.pr
    "@.overall geomean (all models, all archs, all threads): %.2fx   [paper: 2.90x]@."
    overall;
  List.iter
    (fun (w, paper) ->
      let sp =
        geo
          (List.map
             (fun e -> speedup ~w ~n:32 e)
             (Models.Registry.by_class Models.Model_def.Large))
      in
      let name = match w with 2 -> "SSE" | 4 -> "AVX2" | _ -> "AVX-512" in
      Fmt.pr "large models, 32T, %s: %.2fx   [paper: %s]@." name sp paper)
    [ (2, "3.80x"); (4, "5.13x"); (8, "6.03x") ]

let fig6 () =
  hr ();
  Fmt.pr "Figure 6: roofline, 32 threads AVX-512 (limpetMLIR kernels).@.";
  let arch = Machine.Arch.avx512 in
  let c = Machine.Ert.ceilings arch ~nthreads:32 in
  Fmt.pr "platform ceilings (ERT analogue): peak %.0f GFlop/s, DRAM %.0f GB/s,@."
    c.Machine.Ert.peak_gflops c.Machine.Ert.dram_bw;
  Fmt.pr "L1 %.0f GB/s   [paper: 760 GFlop/s, 199 GB/s, 1052 GB/s]@."
    c.Machine.Ert.l1_bw;
  hr ();
  let points =
    List.map
      (fun e ->
        let r =
          Machine.Perfmodel.run_kernel (mlir 8 e) ~ncells:cells ~steps ~nthreads:32
        in
        {
          Perf.Roofline.label = e.Models.Model_def.name;
          oi = r.Machine.Perfmodel.oi;
          gflops = r.Machine.Perfmodel.gflops;
          cls = cls_tag e;
        })
      all_models
  in
  Fmt.pr "%a" Perf.Roofline.pp_points points;
  with_csv "fig6" "model,class,oi_flops_per_byte,gflops"
    (List.map
       (fun (p : Perf.Roofline.point) ->
         Printf.sprintf "%s,%s,%.5f,%.3f" p.label p.cls p.oi p.gflops)
       points);
  let rc =
    {
      Perf.Roofline.peak_gflops = c.Machine.Ert.peak_gflops;
      dram_bw = c.Machine.Ert.dram_bw;
      l1_bw = c.Machine.Ert.l1_bw;
    }
  in
  let membound =
    List.filter
      (fun p -> Perf.Roofline.memory_bound rc ~oi:p.Perf.Roofline.oi)
      points
  in
  Fmt.pr "@.ridge point: %.2f Flops/Byte; %d of %d models are memory-bound@."
    (Perf.Roofline.ridge rc) (List.length membound) (List.length points);
  Fmt.pr "(paper: the majority of models sit left of ~4 Flops/Byte).@."

let layout_ablation () =
  hr ();
  Fmt.pr "Section 4.4: data-layout ablation (AoSoA transformation off/on),@.";
  Fmt.pr "AVX-512, geomean over 1..32 threads.@.";
  hr ();
  let aos_cfg =
    { (Codegen.Config.mlir ~width:8) with layout = Runtime.Layout.AoS }
  in
  let sp cfg e =
    geo (List.map (fun n -> seconds (base e) n /. seconds (gen cfg e) n) threads_axis)
  in
  let sp_aos = geo (List.map (sp aos_cfg) all_models) in
  let sp_aosoa = geo (List.map (sp (Codegen.Config.mlir ~width:8)) all_models) in
  Fmt.pr "all-model geomean: AoS %.2fx -> AoSoA %.2fx   [paper: 3.12x -> 3.37x]@."
    sp_aos sp_aosoa;
  let sn = Models.Registry.find_exn "Stress_Niederer" in
  Fmt.pr "Stress_Niederer, 32T: AoS %.2fx -> AoSoA %.2fx   [paper: 4.98x -> 6.03x]@."
    (seconds (base sn) 32 /. seconds (gen aos_cfg sn) 32)
    (seconds (base sn) 32 /. seconds (mlir 8 sn) 32)

let lut_ablation () =
  hr ();
  Fmt.pr "Section 3.4.2: lookup-table ablation.  The paper's >6x claim is@.";
  Fmt.pr "about LUT vs non-LUT model versions in openCARP (scalar libm@.";
  Fmt.pr "recomputation per cell); the vector column shows the remaining@.";
  Fmt.pr "benefit once SVML already made math cheap.  1 thread.@.";
  hr ();
  let nolut_s = { Codegen.Config.baseline with use_lut = false } in
  let nolut_v = { (Codegen.Config.mlir ~width:8) with use_lut = false } in
  Fmt.pr "%-22s %14s %14s@." "model" "scalar gain" "vector gain";
  let gains =
    List.filter_map
      (fun e ->
        let g = mlir 8 e in
        if g.Codegen.Kernel.lut_plans = [] then None
        else
          let gs = seconds (gen nolut_s e) 1 /. seconds (base e) 1 in
          let gv = seconds (gen nolut_v e) 1 /. seconds g 1 in
          Fmt.pr "%-22s %13.2fx %13.2fx@." e.Models.Model_def.name gs gv;
          Some gs)
      (by_baseline_time all_models)
  in
  let _, mx = Perf.Stats.min_max gains in
  Fmt.pr "@.geomean scalar LUT gain: %.2fx; max %.2fx   [paper: reaches >6x]@."
    (geo gains) mx

let icc_ablation () =
  hr ();
  Fmt.pr "Section 5: icc 'omp simd' auto-vectorization comparison point@.";
  Fmt.pr "(vector arithmetic, serialized math calls, AoS gathers),@.";
  Fmt.pr "AVX-512, geomean over 1..32 threads.@.";
  hr ();
  let icc_cfg = Codegen.Config.autovec ~width:8 in
  let sp cfg e =
    geo (List.map (fun n -> seconds (base e) n /. seconds (gen cfg e) n) threads_axis)
  in
  let sp_icc = geo (List.map (sp icc_cfg) all_models) in
  let sp_mlir = geo (List.map (sp (Codegen.Config.mlir ~width:8)) all_models) in
  Fmt.pr "icc-style auto-vectorization: %.2fx   [paper: 2.19x]@." sp_icc;
  Fmt.pr "limpetMLIR:                   %.2fx   [paper: 3.37x]@." sp_mlir

let spline_ablation () =
  hr ();
  Fmt.pr "Extension (paper section 7 future work): cubic spline vs linear@.";
  Fmt.pr "LUT interpolation.  Accuracy: worst error of the interpolated@.";
  Fmt.pr "HodgkinHuxley rate-function columns over a fine Vm sweep, at@.";
  Fmt.pr "several table steps.  Cost from the machine model at the paper's@.";
  Fmt.pr "0.05 mV step, 1 thread AVX-512.@.";
  hr ();
  let e = Models.Registry.find_exn "HodgkinHuxley" in
  let g = mlir 8 e in
  let plan = List.hd g.Codegen.Kernel.lut_plans in
  let columns =
    List.map
      (fun (c : Easyml.Lut_cones.column) x ->
        Easyml.Lut_cones.eval_column ~dt:0.01 plan c x)
      plan.Easyml.Lut_cones.columns
    |> Array.of_list
  in
  let ncols = Array.length columns in
  let worst interp step =
    let t = Runtime.Lut.build ~lo:(-90.0) ~hi:60.0 ~step columns in
    let row = Float.Array.make ncols 0.0 in
    let w = ref 0.0 in
    for i = 0 to 3000 do
      let x = -85.0 +. (140.0 *. float_of_int i /. 3000.0) in
      interp t x ~row;
      Array.iteri
        (fun c col ->
          let exact = col x in
          let err =
            Float.abs (Float.Array.get row c -. exact)
            /. (1.0 +. Float.abs exact)
          in
          w := Float.max !w err)
        columns
    done;
    !w
  in
  Fmt.pr "%10s %14s %14s %9s@." "step(mV)" "linear err" "cubic err" "ratio";
  List.iter
    (fun step ->
      let el = worst Runtime.Lut.interp_row step in
      let ec = worst Runtime.Lut.interp_row_cubic step in
      Fmt.pr "%10g %14.3e %14.3e %8.0fx@." step el ec (el /. ec))
    [ 2.0; 1.0; 0.5; 0.1 ];
  let t_lin = seconds g 1 in
  let t_cub =
    seconds (gen { (Codegen.Config.mlir ~width:8) with lut_spline = true } e) 1
  in
  Fmt.pr "@.modelled kernel cost at the 0.05 mV step: linear %.1f s, cubic %.1f s@."
    t_lin t_cub;
  Fmt.pr "(%.2fx).  Cubic buys ~100-1000x column accuracy, so tables can be@."
    (t_cub /. t_lin);
  Fmt.pr "an order of magnitude coarser (smaller, more cache-resident) at@.";
  Fmt.pr "equal accuracy — the trade the paper's future-work section names.@."

(* ------------------------------------------------------------------ *)
(* Real wall-clock measurements through the execution engine            *)
(* ------------------------------------------------------------------ *)

(* Perf-regression harness over the real execution engines.  Tunables come
   from the command line: [cells=N] sets cells per kernel invocation,
   [steps=N] caps the bechamel sample count (the smoke target uses
   cells=64 steps=100), [json=FILE] writes the per-kernel medians to FILE
   so future PRs have a recorded trajectory (BENCH_wall.json in-tree). *)
let wall_cells = ref 512
let wall_limit = ref 300
let wall_json : string option ref = ref None

type wall_row = {
  wr_model : string;
  wr_cls : string;
  wr_cfg : string;  (** "scalar" | "vector" *)
  wr_engine : string;  (** "interp" | "closure" | "batched" | ... *)
  wr_median_ns : float;
  wr_iqr_ns : float;  (** interquartile range of the per-run samples *)
  wr_samples : int;
  wr_phases : (string * float) list;
      (** span name -> total µs over a short traced re-run (tracing is
          off during the bechamel measurement itself) *)
  wr_health : int * int * int;
      (** (NaN, Inf, clamp-violation) totals over a short monitored
          re-run of the same driver — nonzero NaN fails the CI smoke *)
}

(* Each engine variant knows how to build its driver.  The native
   (JIT-C) engine exists only when a C toolchain is actually present:
   without one, Driver.create silently degrades to batched and every
   native row — and the native_vs_batched headline gated in CI — would
   be a fabricated 1.0. *)
let wall_engines =
  let mk engine g n = Sim.Driver.create ~engine g ~ncells:n ~dt:0.01 in
  [
    ("interp", mk Sim.Driver.Reference);
    ("closure", mk Sim.Driver.Compiled);
    ("batched", mk Sim.Driver.Batched);
  ]
  @
  if Exec.Native.available () then [ ("native", mk Sim.Driver.Native) ]
  else []

let wall_configs =
  [ ("scalar", Codegen.Config.baseline); ("vector", Codegen.Config.mlir ~width:8) ]

let wall_reps =
  [ "MitchellSchaeffer"; "LuoRudy91"; "TenTusscher"; "GrandiPanditVoigt" ]

(* The wall rows time full stimulated steps (compute kernel plus the
   O(ncells) membrane update, which the kernel dominates).  Driving the
   compute stage alone holds Vm frozen while the gates integrate against
   it; stiff models (GrandiPanditVoigt) walk off to NaN within a few
   hundred such invocations, and timing a kernel over non-finite state
   is meaningless — denormal/NaN slow paths inflate the IQR to the size
   of the median.  S1 pacing keeps every trajectory physiological for
   the whole bechamel quota. *)
let wall_stim = Sim.Stim.default

(* Short traced re-run: a handful of steps under the tracer, so every
   BENCH_wall.json row carries a phase breakdown next to its median.
   Runs strictly after the bechamel measurement — tracing is disabled
   while samples are taken. *)
let phase_breakdown (d : Sim.Driver.t) : (string * float) list =
  Obs.Tracer.reset ();
  Obs.Tracer.enable ();
  for _ = 1 to 3 do
    Sim.Driver.step ~stim:wall_stim d
  done;
  Obs.Tracer.disable ();
  let snap = Obs.Tracer.snapshot () in
  List.map
    (fun (s : Obs.Export.span_stat) ->
      (s.Obs.Export.ss_name, s.Obs.Export.ss_total_us))
    (Obs.Export.summarize snap)

(* Short monitored re-run on the retained driver (strictly after the
   bechamel measurement, like the phase breakdown): every-step health
   sampling over a couple of steps, so each row records whether the
   kernel it timed was producing finite state. *)
let health_of (d : Sim.Driver.t) : int * int * int =
  Sim.Driver.enable_health
    ~cfg:{ Obs.Health.default_config with Obs.Health.stride = 1 }
    ~warn:(fun _ -> ())
    d;
  for _ = 1 to 2 do
    Sim.Driver.step ~stim:wall_stim d
  done;
  let totals =
    match Sim.Driver.health_snapshot d with
    | Some hs -> Obs.Health.totals hs
    | None -> (0, 0, 0)
  in
  Sim.Driver.disable_health d;
  totals

(* Every-model health sweep: short stimulated runs of all bundled models
   under every-step monitoring, on the batched vector config.  Recorded in
   BENCH_wall.json as "health_sweep"; the CI gate fails on any nonzero
   NaN count. *)
let health_sweep () : (string * (int * int * int)) list =
  let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.05 ~duration:0.1 () in
  List.map
    (fun (e : Models.Model_def.entry) ->
      let g = gen (Codegen.Config.mlir ~width:8) e in
      let d =
        Sim.Driver.create ~engine:Sim.Driver.Batched g ~ncells:32 ~dt:0.01
      in
      Sim.Driver.enable_health
        ~cfg:{ Obs.Health.default_config with Obs.Health.stride = 1 }
        ~warn:(fun _ -> ())
        d;
      for _ = 1 to 20 do
        Sim.Driver.step ~stim d
      done;
      let totals =
        match Sim.Driver.health_snapshot d with
        | Some hs -> Obs.Health.totals hs
        | None -> (0, 0, 0)
      in
      Sim.Driver.disable_health d;
      (e.Models.Model_def.name, totals))
    Models.Registry.all

(* Rows with fewer bechamel samples than this carry too much variance to
   contribute to a geomean headline; they are dropped with a log line. *)
let min_geo_samples = 10

(* Flight-recorder cost: the same batched vector driver run to completion
   with and without a checkpoint writer at the CLI's default stride
   (1000 steps, keep 3, verify on — exactly what `limpetmlir run
   --checkpoint-dir` attaches), wall-clock around the whole run so the
   serialization and fsync cost is in the numerator.  Large models only:
   they carry the most state per checkpoint and are the rows the paper's
   figures care about.  The geomean is gated < 1.03 in CI. *)
let ckpt_stride = 1_000
let ckpt_steps = 3_000
let ckpt_reps = 3

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let checkpoint_overhead () : (string * float) list =
  let large =
    List.filter
      (fun n ->
        (Models.Registry.find_exn n).Models.Model_def.cls
        = Models.Model_def.Large)
      wall_reps
  in
  List.map
    (fun name ->
      let e = Models.Registry.find_exn name in
      let g = gen (Codegen.Config.mlir ~width:8) e in
      let wall ~(ckpt : bool) () =
        let d =
          Sim.Driver.create ~engine:Sim.Driver.Batched g ~ncells:!wall_cells
            ~dt:0.01
        in
        let writer, dir =
          if not ckpt then (None, None)
          else begin
            let dir =
              Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "limpet-ckpt-bench-%d-%s" (Unix.getpid ())
                   name)
            in
            ( Some (Obs.Recorder.create_writer ~dir ~stride:ckpt_stride ()),
              Some dir )
          end
        in
        let t0 = Unix.gettimeofday () in
        ignore (Sim.Driver.run ~stim:wall_stim ?ckpt:writer d ~steps:ckpt_steps);
        let t = Unix.gettimeofday () -. t0 in
        Option.iter rm_rf dir;
        t
      in
      let best f =
        let m = ref Float.infinity in
        for _ = 1 to ckpt_reps do
          Gc.compact ();
          m := Float.min !m (f ())
        done;
        !m
      in
      (* interleave-free: all plain reps, then all checkpointed reps, on
         freshly created drivers each time *)
      let plain = best (wall ~ckpt:false) in
      let ckpt = best (wall ~ckpt:true) in
      (name, ckpt /. plain))
    large

let wall_write_json (path : string) (rows : wall_row list)
    (sweep : (string * (int * int * int)) list)
    (summary : (string * float) list) : unit =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"cells\": %d,\n  \"sample_limit\": %d,\n" !wall_cells
       !wall_limit);
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      let phases =
        String.concat ", "
          (List.map
             (fun (n, us) -> Printf.sprintf "%S: %.1f" n us)
             r.wr_phases)
      in
      let h_nan, h_inf, h_clamp = r.wr_health in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"model\": %S, \"class\": %S, \"config\": %S, \"engine\": \
            %S, \"median_ns\": %.1f, \"iqr_ns\": %.1f, \"samples\": %d, \
            \"phases\": {%s}, \"health\": {\"nan\": %d, \"inf\": %d, \
            \"clamp\": %d}}%s\n"
           r.wr_model r.wr_cls r.wr_cfg r.wr_engine r.wr_median_ns r.wr_iqr_ns
           r.wr_samples phases h_nan h_inf h_clamp
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n  \"health_sweep\": [\n";
  List.iteri
    (fun i (name, (nan, inf, clamp)) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"model\": %S, \"nan\": %d, \"inf\": %d, \"clamp\": %d}%s\n"
           name nan inf clamp
           (if i = List.length sweep - 1 then "" else ",")))
    sweep;
  Buffer.add_string b "  ],\n  \"summary\": {\n";
  List.iteri
    (fun i (k, v) ->
      (* NaN (e.g. every contributing row dropped for too few samples)
         is not valid JSON; record null so consumers see "not measured" *)
      let sv =
        if Float.is_nan v then "null" else Printf.sprintf "%.4f" v
      in
      Buffer.add_string b
        (Printf.sprintf "    %S: %s%s\n" k sv
           (if i = List.length summary - 1 then "" else ",")))
    summary;
  Buffer.add_string b "  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Fmt.pr "(wrote %s)@." path

let wallclock () =
  hr ();
  Fmt.pr "Wall-clock microbenchmarks (bechamel): real execution of the@.";
  Fmt.pr "generated kernels on this host, {interp, closure, batched,@.";
  Fmt.pr "native} engines x {scalar, vector} configs; median ns per stimulated@.";
  Fmt.pr "step (kernel-dominated) with the interquartile range per row.@.";
  hr ();
  (* keep each label's driver so the phase breakdown below re-runs the
     exact kernel instance bechamel measured *)
  let drivers : (string, Sim.Driver.t) Hashtbl.t = Hashtbl.create 64 in
  let tests =
    List.concat_map
      (fun name ->
        let e = Models.Registry.find_exn name in
        List.concat_map
          (fun (cname, cfg) ->
            let g = gen cfg e in
            List.map
              (fun (ename, mk) ->
                let d = mk g !wall_cells in
                let label = Printf.sprintf "%s/%s/%s" name cname ename in
                Hashtbl.replace drivers label d;
                Bechamel.Test.make ~name:label
                  (Bechamel.Staged.stage (fun () ->
                       Sim.Driver.step ~stim:wall_stim d)))
              wall_engines)
          wall_configs)
      wall_reps
  in
  let test = Bechamel.Test.make_grouped ~name:"kernels" ~fmt:"%s %s" tests in
  (* the preceding sections leave a large heap behind; compact so GC churn
     does not pollute the measurements *)
  Gc.compact ();
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if !wall_limit < 300 then 0.1 else 1.0 in
  let cfg = Benchmark.cfg ~limit:!wall_limit ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ instance ] test in
  let clock = Measure.label instance in
  let median_of label : (float * float * int) option =
    match Hashtbl.find_opt raw ("kernels " ^ label) with
    | None -> None
    | Some (b : Benchmark.t) ->
        let per_run =
          Array.to_list b.Benchmark.lr
          |> List.filter_map (fun m ->
                 let runs = Measurement_raw.run m in
                 if runs <= 0.0 then None
                 else Some (Measurement_raw.get ~label:clock m /. runs))
        in
        if per_run = [] then None
        else
          Some
            ( Perf.Stats.median per_run,
              Perf.Stats.iqr per_run,
              List.length per_run )
  in
  let rows = ref [] in
  List.iter
    (fun name ->
      let e = Models.Registry.find_exn name in
      List.iter
        (fun (cname, _) ->
          let by_engine =
            List.filter_map
              (fun (ename, _) ->
                let label = Printf.sprintf "%s/%s/%s" name cname ename in
                match median_of label with
                | None -> None
                | Some (ns, iqr, samples) ->
                    let phases, health =
                      match Hashtbl.find_opt drivers label with
                      | Some d -> (phase_breakdown d, health_of d)
                      | None -> ([], (0, 0, 0))
                    in
                    rows :=
                      {
                        wr_model = name;
                        wr_cls = cls_tag e;
                        wr_cfg = cname;
                        wr_engine = ename;
                        wr_median_ns = ns;
                        wr_iqr_ns = iqr;
                        wr_samples = samples;
                        wr_phases = phases;
                        wr_health = health;
                      }
                      :: !rows;
                    Some (ename, ns))
              wall_engines
          in
          let ns ename = List.assoc_opt ename by_engine in
          (match (ns "interp", ns "closure", ns "batched") with
          | Some ti, Some tc, Some tb ->
              Fmt.pr
                "%-24s %-6s interp %11.1f us  closure %9.1f us  batched \
                 %9.1f us  (closure/batched %.2fx)@."
                name cname (ti /. 1e3) (tc /. 1e3) (tb /. 1e3) (tc /. tb)
          | _ -> Fmt.pr "%-24s %-6s (no estimate)@." name cname);
          match (ns "native", ns "batched") with
          | Some tnat, Some tb ->
              Fmt.pr "%-24s %-6s native %11.1f us  (batched/native %.2fx)@."
                name cname (tnat /. 1e3) (tb /. tnat)
          | _ -> ())
        wall_configs)
    wall_reps;
  let rows = List.rev !rows in
  (* Per-(model, config) median ratio of engine [num] over engine [den].
     Rows measured with too few samples are refused a geomean
     contribution and logged, so a short smoke run cannot fabricate a
     headline from noise. *)
  let ratios ~(num : string) ~(den : string) ~cls_filter ~cfg_filter =
    List.filter_map
      (fun r ->
        if r.wr_engine <> num || not (cls_filter r.wr_cls && cfg_filter r.wr_cfg)
        then None
        else
          match
            List.find_opt
              (fun f ->
                f.wr_model = r.wr_model && f.wr_cfg = r.wr_cfg
                && f.wr_engine = den)
              rows
          with
          | None -> None
          | Some f when
              r.wr_samples < min_geo_samples
              || f.wr_samples < min_geo_samples ->
              Fmt.pr
                "dropped: %s/%s %s/%s ratio from geomean (%d and %d samples, \
                 need %d)@."
                r.wr_model r.wr_cfg num den r.wr_samples f.wr_samples
                min_geo_samples;
              None
          | Some f -> Some (r.wr_median_ns /. f.wr_median_ns))
      rows
  in
  let geo_or_nan = function [] -> Float.nan | xs -> geo xs in
  let any _ = true in
  let large c = c = "large" in
  (* headline: batched, the fastest OCaml engine, vs the seed closure
     engine on the large-model class (the geomean is gated >= 1.0 in
     CI) *)
  let sc =
    geo_or_nan (ratios ~num:"closure" ~den:"batched" ~cls_filter:large
                  ~cfg_filter:(fun c -> c = "scalar"))
  in
  let ve =
    geo_or_nan (ratios ~num:"closure" ~den:"batched" ~cls_filter:large
                  ~cfg_filter:(fun c -> c = "vector"))
  in
  let all =
    geo_or_nan
      (ratios ~num:"closure" ~den:"batched" ~cls_filter:large ~cfg_filter:any)
  in
  Fmt.pr "@.large-class batched-vs-closure median speedup: scalar %.2fx, \
          vector %.2fx, geomean %.2fx@."
    sc ve all;
  (* headline: the JIT-C native engine vs the batched engine over every
     model class (rows only exist when a toolchain is present; the
     geomean is gated >= 1.0 in CI) *)
  let nsc =
    geo_or_nan (ratios ~num:"batched" ~den:"native" ~cls_filter:any
                  ~cfg_filter:(fun c -> c = "scalar"))
  in
  let nve =
    geo_or_nan (ratios ~num:"batched" ~den:"native" ~cls_filter:any
                  ~cfg_filter:(fun c -> c = "vector"))
  in
  let nall =
    geo_or_nan
      (ratios ~num:"batched" ~den:"native" ~cls_filter:any ~cfg_filter:any)
  in
  Fmt.pr "native-vs-batched median speedup: scalar %.2fx, vector %.2fx, \
          geomean %.2fx@."
    nsc nve nall;
  (* flight-recorder cost on the large rows: full runs with the default
     CLI writer attached vs without, wall-clock ratio *)
  let ck_rows = checkpoint_overhead () in
  List.iter
    (fun (name, r) ->
      Fmt.pr
        "checkpoint overhead (%s, batched vector, stride %d over %d steps): \
         %.4fx@."
        name ckpt_stride ckpt_steps r)
    ck_rows;
  let ck = geo_or_nan (List.map snd ck_rows) in
  Fmt.pr "checkpoint overhead geomean (gate < 1.03): %.4fx@." ck;
  Fmt.pr "(%d cells per kernel invocation)@." !wall_cells;
  match !wall_json with
  | None -> ()
  | Some path ->
      let sweep = health_sweep () in
      let nan_total =
        List.fold_left (fun acc (_, (nan, _, _)) -> acc + nan) 0 sweep
      in
      (let row_nan =
         List.fold_left
           (fun acc r -> let n, _, _ = r.wr_health in acc + n)
           0 rows
       in
       Fmt.pr "health sweep over %d model(s): %d NaN (rows: %d NaN)@."
         (List.length sweep) nan_total row_nan);
      wall_write_json path rows sweep
        [
          ("large_batched_vs_closure_scalar", sc);
          ("large_batched_vs_closure_vector", ve);
          ("large_batched_vs_closure_geomean", all);
          ("native_vs_batched_scalar", nsc);
          ("native_vs_batched_vector", nve);
          ("native_vs_batched_geomean", nall);
          ("checkpoint_overhead_geomean", ck);
          ("health_nan_total", float_of_int nan_total);
        ]

(* ------------------------------------------------------------------ *)
(* Tissue-scale monodomain throughput                                  *)
(* ------------------------------------------------------------------ *)

(* Operator-split 1-D cable (tissue library) per execution engine:
   cells/sec over full tissue steps (ionic stage + exchange + implicit
   diffusion solve) plus the measured conduction velocity — which must
   agree across engines, since tissue trajectories are engine-bitwise.
   Tunables: [tissue-cells=N], [tissue-steps=N], [tissue-json=FILE]
   (BENCH_tissue.json in-tree). *)
let tissue_cells = ref 256
let tissue_steps = ref 7_500
let tissue_json : string option ref = ref None
let tissue_model = "MitchellSchaeffer"
let tissue_reps = 3

type tissue_row = {
  tr_engine : string;
  tr_wall_s : float;  (** best-of-[tissue_reps] wall seconds *)
  tr_cells_per_sec : float;
  tr_cv : float option;  (** conduction velocity, cm/ms *)
  tr_activated : int;
}

let tissue_engines () =
  [
    ("interp", Sim.Driver.Reference);
    ("closure", Sim.Driver.Compiled);
    ("batched", Sim.Driver.Batched);
  ]
  @ if Exec.Native.available () then [ ("native", Sim.Driver.Native) ] else []

let tissue_write_json (path : string) (rows : tissue_row list) : unit =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"model\": %S,\n  \"geometry\": \"cable\",\n  \"cells\": %d,\n\
       \  \"steps\": %d,\n  \"dt_ms\": 0.01,\n  \"sigma\": 0.001,\n\
       \  \"splitting\": \"godunov\",\n  \"reps\": %d,\n"
       tissue_model !tissue_cells !tissue_steps tissue_reps);
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"engine\": %S, \"wall_s\": %.4f, \"cells_per_sec\": %.0f, \
            \"cv_cm_per_ms\": %s, \"activated\": %d}%s\n"
           r.tr_engine r.tr_wall_s r.tr_cells_per_sec
           (match r.tr_cv with
           | Some cv -> Printf.sprintf "%.9g" cv
           | None -> "null")
           r.tr_activated
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  let fastest =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some b when b.tr_cells_per_sec >= r.tr_cells_per_sec -> acc
        | _ -> Some r)
      None rows
  in
  Buffer.add_string b "  ],\n  \"summary\": {\n";
  (match fastest with
  | Some f ->
      Buffer.add_string b
        (Printf.sprintf "    \"fastest_engine\": %S,\n" f.tr_engine)
  | None -> ());
  let speedup num den =
    match
      ( List.find_opt (fun r -> r.tr_engine = num) rows,
        List.find_opt (fun r -> r.tr_engine = den) rows )
    with
    | Some a, Some d when d.tr_cells_per_sec > 0.0 ->
        Printf.sprintf "%.4f" (a.tr_cells_per_sec /. d.tr_cells_per_sec)
    | _ -> "null"
  in
  Buffer.add_string b
    (Printf.sprintf "    \"batched_vs_closure\": %s,\n"
       (speedup "batched" "closure"));
  Buffer.add_string b
    (Printf.sprintf "    \"native_vs_batched\": %s\n"
       (speedup "native" "batched"));
  Buffer.add_string b "  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Fmt.pr "(wrote %s)@." path

let tissue_bench () =
  hr ();
  Fmt.pr "Tissue monodomain throughput: operator-split 1-D cable (%d cells,@."
    !tissue_cells;
  Fmt.pr "%d steps of 0.01 ms, S1 planar wave) per execution engine; cells/sec@."
    !tissue_steps;
  Fmt.pr "over full tissue steps and the measured conduction velocity.@.";
  hr ();
  let e = Models.Registry.find_exn tissue_model in
  let g = gen (Codegen.Config.mlir ~width:8) e in
  let geom = Tissue.Geometry.cable ~n:!tissue_cells ~dx:0.01 in
  let run_once engine =
    let sim =
      Tissue.Monodomain.create ~engine g ~geom ~dt:0.01
        ~protocol:(Tissue.Protocol.s1 geom)
    in
    let wall = Tissue.Monodomain.run sim ~steps:!tissue_steps in
    (wall, sim)
  in
  let rows =
    List.map
      (fun (name, engine) ->
        Gc.compact ();
        let best_wall = ref Float.infinity and last_sim = ref None in
        for _ = 1 to tissue_reps do
          let wall, sim = run_once engine in
          if wall < !best_wall then best_wall := wall;
          last_sim := Some sim
        done;
        let sim = Option.get !last_sim in
        let act = Tissue.Monodomain.activation sim in
        let row =
          {
            tr_engine = name;
            tr_wall_s = !best_wall;
            tr_cells_per_sec =
              float_of_int (!tissue_cells * !tissue_steps) /. !best_wall;
            tr_cv = Tissue.Monodomain.conduction_velocity sim;
            tr_activated = Tissue.Activation.activated act;
          }
        in
        Fmt.pr "%-8s %8.3f s   %12.0f cells/s   cv %s   activated %d/%d@."
          name row.tr_wall_s row.tr_cells_per_sec
          (match row.tr_cv with
          | Some cv -> Printf.sprintf "%.4f cm/ms" cv
          | None -> "n/a")
          row.tr_activated !tissue_cells;
        row)
      (tissue_engines ())
  in
  (* the trajectories — and so the measured CV — must agree across
     engines (native within its documented ULP bound) *)
  (match
     List.filter_map (fun r -> r.tr_cv) rows |> function
     | [] -> None
     | cv :: rest -> Some (cv, rest)
   with
  | Some (cv0, rest) ->
      List.iter
        (fun cv ->
          if Float.abs (cv -. cv0) > 1e-6 *. Float.abs cv0 then
            Fmt.pr "WARNING: cross-engine CV drift: %.9g vs %.9g@." cv cv0)
        rest
  | None -> Fmt.pr "WARNING: no engine measured a conduction velocity@.");
  with_csv "tissue" "engine,wall_s,cells_per_sec,cv_cm_per_ms,activated"
    (List.map
       (fun r ->
         Printf.sprintf "%s,%.4f,%.0f,%s,%d" r.tr_engine r.tr_wall_s
           r.tr_cells_per_sec
           (match r.tr_cv with
           | Some cv -> Printf.sprintf "%.9g" cv
           | None -> "")
           r.tr_activated)
       rows);
  match !tissue_json with
  | None -> ()
  | Some path -> tissue_write_json path rows

let sections =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("layout", layout_ablation);
    ("lut", lut_ablation);
    ("icc", icc_ablation);
    ("spline", spline_ablation);
    ("wall", wallclock);
    ("tissue", tissue_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let key_val a =
    match String.index_opt a '=' with
    | None -> None
    | Some i ->
        Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
  in
  let posint k v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ ->
        Fmt.epr "%s= wants a positive integer, got %S@." k v;
        exit 2
  in
  let args =
    List.filter
      (fun a ->
        match key_val a with
        | Some ("csv", v) ->
            csv_dir := Some v;
            false
        | Some ("json", v) ->
            wall_json := Some v;
            false
        | Some ("tissue-json", v) ->
            tissue_json := Some v;
            false
        | Some ("tissue-cells", v) ->
            tissue_cells := posint "tissue-cells" v;
            false
        | Some ("tissue-steps", v) ->
            tissue_steps := posint "tissue-steps" v;
            false
        | Some ("cells", v) ->
            wall_cells := posint "cells" v;
            false
        | Some ("steps", v) ->
            wall_limit := posint "steps" v;
            false
        | _ -> true)
      args
  in
  let todo =
    if args = [] then sections
    else
      List.filter_map
        (fun a ->
          match List.assoc_opt a sections with
          | Some f -> Some (a, f)
          | None ->
              Fmt.epr "unknown section %s (available: %s)@." a
                (String.concat ", " (List.map fst sections));
              None)
        args
  in
  Fmt.pr "limpetMLIR reproduction benchmark harness@.";
  Fmt.pr "workload: %d cells, %d steps of 0.01 ms (paper defaults)@." cells steps;
  Fmt.pr "figures use the calibrated Cascade Lake machine model (DESIGN.md);@.";
  Fmt.pr "the 'wall' section measures real kernel execution on this host.@.@.";
  List.iter (fun (_, f) -> f ()) todo;
  Fmt.pr "@.%s@." (Codegen.Cache.describe_stats ())
