(** One benchmarked invocation, run in a process of its own.

    The child replays the calls [limpetmlir run] / [limpetmlir tissue]
    make, in their order and with their defaults, and times each call
    into a layer's public function from outside.  The timed layers
    partition the child's wall clock: whatever falls between them is
    reported as unaccounted. *)

(** Monotonic seconds. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type result = {
  wall_s : float;  (** child start to the answer *)
  setup_s : float;  (** child start to the first step *)
  loop_s : float;  (** the whole step loop, checkpoint writes included *)
  rss_mb : float;  (** [VmHWM] at exit *)
  timed : (string * float) list;
      (** seconds per layer, by metric name; these sum to [wall_s] up to
          the unaccounted gaps *)
  counts : (string * float) list;
      (** kernel op counts, cache hits/misses, checkpoints, step
          percentiles *)
  traced : (string * float) list;
      (** traced invocations only: self seconds per span layer,
          [trace.dropped], and [traced_step_s] (the [tissue.step] spans'
          total) *)
  answer : Oracle.answer;
}

(* -- traced self time ------------------------------------------------- *)

let passes = [ "canonicalize"; "const-fold"; "cse"; "licm"; "dce" ]

(** The layer metric an existing span feeds, if any.  [tissue.step] is
    the benchmark's own span around {!Tissue.Monodomain.step}; its self
    time is what the step does besides its ionic, exchange and diffusion
    phases: tick, activation, block check. *)
let layer_of_span (name : string) : string option =
  let pass = String.sub name 5 (max 0 (String.length name - 5)) in
  if String.starts_with ~prefix:"pass:" name && List.mem pass passes then
    Some ("passes." ^ pass ^ "_s")
  else if String.starts_with ~prefix:"batched.compile:" name then
    Some "exec.batched_compile_s"
  else
    match name with
    | "driver.lut_init" -> Some "sim.lut_init_s"
    | "tissue.ionic" -> Some "tissue.ionic_s"
    | "tissue.exchange" -> Some "tissue.exchange_s"
    | "tissue.diffusion" -> Some "tissue.diffusion_s"
    | "tissue.step" -> Some "tissue.observe_s"
    | _ -> None

type frame = {
  f_layer : string option;
  f_name : string;
  f_start : float;
  mutable f_covered : float;  (** seconds covered by nested layers *)
}

(** Self seconds per layer: a mapped span's duration minus the time its
    nested mapped spans cover; an unmapped span folds into its nearest
    mapped ancestor (so [driver.compute] counts as [tissue.ionic]).
    Also returns the total duration of the [tissue.step] spans. *)
let self_times (snap : Obs.Tracer.snapshot) : (string * float) list * float =
  let acc = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))
  in
  let steps = ref 0.0 in
  let stacks = Hashtbl.create 2 in
  List.iter
    (fun (e : Obs.Tracer.event) ->
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks e.ev_dom) in
      match (e.ev_kind, st) with
      | Obs.Tracer.Begin, _ ->
          let f =
            { f_layer = layer_of_span e.ev_name; f_name = e.ev_name;
              f_start = e.ev_ts; f_covered = 0.0 }
          in
          Hashtbl.replace stacks e.ev_dom (f :: st)
      | Obs.Tracer.End, [] -> ()
      | Obs.Tracer.End, f :: rest ->
          Hashtbl.replace stacks e.ev_dom rest;
          let dur = (e.ev_ts -. f.f_start) *. 1e-6 in
          if f.f_name = "tissue.step" then steps := !steps +. dur;
          let covered =
            match f.f_layer with
            | Some l ->
                add l (dur -. f.f_covered);
                dur
            | None -> f.f_covered
          in
          (match rest with p :: _ -> p.f_covered <- p.f_covered +. covered | [] -> ()))
    snap.Obs.Tracer.events;
  (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc []), !steps)

(* -- the invocation --------------------------------------------------- *)

let vm_hwm_mb () : float =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" Fun.id
          | Some _ -> go ()
        in
        go ())
  in
  kb /. 1024.0

let compute_ops (g : Codegen.Kernel.t) : float =
  match Ir.Func.find_func g.Codegen.Kernel.modl Codegen.Kernel.compute_name with
  | Some f -> float_of_int (Ir.Func.op_count f)
  | None -> nan

(* the metadata `limpetmlir tissue --checkpoint-dir` adds to every
   checkpoint, for the invocation this workload stands for *)
let cli_checkpoint_meta (w : Workload.t) ~nx ~ny ~steps : (string * string) list =
  let h = Oracle.hex in
  [
    ("model_ref", w.Workload.model);
    ("steps_total", string_of_int steps);
    ("threads", "1");
    ("cli_width", string_of_int Workload.config.Codegen.Config.width);
    ("cli_layout", "");
    ("cli_no_lut", "false");
    ("cli_autovec", "false");
    ("cli_spline", "false");
    ("engine_req", Sim.Driver.engine_name w.Workload.engine);
    ("nx", string_of_int nx);
    ("ny", string_of_int ny);
    ("dx_bits", h Workload.dx);
    ("sigma_bits", h Workload.sigma);
    ("splitting", "godunov");
    ("protocol", "s1");
    ("stim_width", string_of_int Workload.stim_width);
    ("s2_start_bits", h 340.0);
    ("s1_count", "4");
    ("s1_interval_bits", h 400.0);
    ("s2_coupling_bits", h 300.0);
    ("block_check_bits", h 0.0);
  ]

let run (w : Workload.t) ~(variant : int) ~(trace : string option) : result =
  let t0 = now () in
  let dt = Workload.dt ~variant in
  let traced = trace <> None in
  if traced then begin
    (* room for every event of the invocation: nothing may be dropped *)
    Obs.Tracer.set_capacity ((12 * Workload.steps w) + 100_000);
    Obs.Tracer.enable ()
  end;
  let span name f = if traced then Obs.Tracer.with_span name f else f () in
  let timed = Hashtbl.create 16 in
  let record name v =
    Hashtbl.replace timed name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt timed name))
  in
  let time name f =
    let a = now () in
    let r = span (Filename.chop_suffix name "_s") f in
    record name (now () -. a);
    r
  in
  let name, src = Workload.source w in
  let m = time "easyml.analyze_s" (fun () -> Easyml.Sema.analyze_source ~name src) in
  let checkpoints =
    match w.Workload.shape with
    | Workload.Tissue { checkpoints; _ } -> checkpoints
    | Workload.Cells _ -> false
  in
  (* `limpetmlir tissue --checkpoint-dir` turns the tracer on here, so a
     crash dump carries the ring tail; users pay for it, so we do too *)
  if checkpoints && not traced then begin
    Obs.Tracer.reset ();
    Obs.Tracer.enable ()
  end;
  let g = time "codegen.generate_s" (fun () -> Codegen.Cache.generate Workload.config m) in
  let sg =
    time "codegen.specialize_s" (fun () ->
        Codegen.Cache.specialize g ~dt ~ncells_pad:(Workload.ncells_pad w))
  in
  if w.Workload.engine = Sim.Driver.Native then begin
    let cc0 = (Codegen.Cache.stats ()).Codegen.Cache.cc_ms in
    let a = now () in
    (match span "exec.native" (fun () -> Codegen.Cache.native sg) with
    | Ok _ -> ()
    | Error d -> failwith (Easyml.Diag.to_string ~file:name d));
    let total = now () -. a in
    let cc = ((Codegen.Cache.stats ()).Codegen.Cache.cc_ms -. cc0) /. 1000.0 in
    record "exec.cc_s" cc;
    record "exec.load_s" (total -. cc)
  end;
  (* create re-specializes and re-resolves the native library: both must
     be cache hits, or the layer split above would be dishonest *)
  let misses () =
    let s = Codegen.Cache.stats () in
    (s.Codegen.Cache.spec_misses, s.Codegen.Cache.native_misses)
  in
  let create name f =
    let before = misses () in
    let r = time name f in
    if misses () <> before then failwith "create added specialize/native cache misses";
    r
  in
  let steps = Workload.steps w in
  let per_step = Array.make steps 0.0 in
  let loop0, loop1, answer, extra =
    match w.Workload.shape with
    | Workload.Cells { cells; _ } ->
        let d =
          create "sim.create_s" (fun () ->
              Sim.Driver.create ~engine:w.Workload.engine ~tile:0
                ~specialize:true g ~ncells:cells ~dt)
        in
        let compute = ref 0.0 and update = ref 0.0 in
        let loop0 = now () in
        (* exactly Driver.step (what `run` calls every step), split at
           the stage boundary *)
        for s = 0 to steps - 1 do
          let a = now () in
          Sim.Driver.compute_stage d;
          let b = now () in
          Sim.Driver.membrane_update ~stim:Sim.Stim.default d;
          Sim.Driver.tick d;
          let c = now () in
          compute := !compute +. (b -. a);
          update := !update +. (c -. b);
          per_step.(s) <- c -. a
        done;
        let loop1 = now () in
        record "sim.compute_s" !compute;
        record "sim.update_s" !update;
        let digest =
          time "obs.digest_s" (fun () -> Obs.Recorder.digest (Sim.Driver.capture d))
        in
        (* `run` ends by printing the machine model's prediction *)
        ignore
          (time "machine.predict_s" (fun () ->
               Machine.Perfmodel.run_kernel g ~ncells:cells ~steps ~nthreads:1));
        (loop0, loop1, Oracle.cell_answer d ~digest, [])
    | Workload.Tissue { nx; ny; _ } ->
        let sim =
          create "tissue.create_s" (fun () ->
              let geom = Workload.geometry ~nx ~ny in
              Tissue.Monodomain.create ~engine:w.Workload.engine ~tile:0
                ~specialize:true ~config:Workload.tissue_config ~nthreads:1 g
                ~geom ~dt ~protocol:(Workload.protocol geom))
        in
        let writer =
          if not checkpoints then None
          else
            Some
              (time "obs.write_s" (fun () ->
                   Obs.Recorder.create_writer ~keep:Workload.ckpt_keep
                     ~extra:(cli_checkpoint_meta w ~nx ~ny ~steps)
                     ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "checkpoints")
                     ~stride:Workload.ckpt_stride ()))
        in
        let d = Tissue.Monodomain.driver sim in
        let step = ref 0.0 and capture = ref 0.0 and write = ref 0.0 in
        let loop0 = now () in
        (* exactly Monodomain.run ?ckpt, one step at a time *)
        for s = 0 to steps - 1 do
          let a = now () in
          span "tissue.step" (fun () -> Tissue.Monodomain.step sim);
          let b = now () in
          step := !step +. (b -. a);
          (match writer with
          | Some wr when Obs.Recorder.due wr ~step:d.Sim.Driver.steps_done ->
              span "tissue.checkpoint" (fun () ->
                  let ck = Tissue.Monodomain.capture sim in
                  let c = now () in
                  ignore (Obs.Recorder.record wr ck);
                  capture := !capture +. (c -. b);
                  write := !write +. (now () -. c))
          | _ -> ());
          per_step.(s) <- now () -. a
        done;
        let loop1 = now () in
        record "tissue.step_s" !step;
        if checkpoints then begin
          record "obs.capture_s" !capture;
          record "obs.write_s" !write
        end;
        let digest =
          time "obs.digest_s" (fun () ->
              Obs.Recorder.digest (Tissue.Monodomain.capture sim))
        in
        let ck =
          match writer with
          | Some wr ->
              let s = Obs.Recorder.stats wr in
              [
                ("obs.checkpoints", float_of_int s.Obs.Export.cp_writes);
                ("obs.checkpoint_bytes", float_of_int s.Obs.Export.cp_bytes);
              ]
          | None -> []
        in
        (loop0, loop1, Oracle.tissue_answer sim ~digest, ck)
  in
  let wall = now () -. t0 in
  (* bookkeeping from here on is outside the invocation's wall clock *)
  let traced_metrics =
    match trace with
    | None -> []
    | Some path ->
        Obs.Tracer.disable ();
        let snap = Obs.Tracer.snapshot () in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Obs.Export.chrome snap));
        let self, step_total = self_times snap in
        self
        @ [
            ("trace.dropped", float_of_int snap.Obs.Tracer.dropped);
            ("traced_step_s", step_total);
          ]
  in
  let stats = Codegen.Cache.stats () in
  let steps_us = Array.to_list (Array.map (fun s -> s *. 1e6) per_step) in
  {
    wall_s = wall;
    setup_s = loop0 -. t0;
    loop_s = loop1 -. loop0;
    rss_mb = vm_hwm_mb ();
    timed = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) timed []);
    counts =
      [
        ("codegen.kernel_ops", compute_ops g);
        ("codegen.spec_kernel_ops", compute_ops sg);
        ("exec.native_hits", float_of_int stats.Codegen.Cache.native_hits);
        ("exec.native_misses", float_of_int stats.Codegen.Cache.native_misses);
        ("sim.step_p50_us", Perf.Stats.quantile steps_us 0.5);
        ("sim.step_p99_us", Perf.Stats.quantile steps_us 0.99);
      ]
      @ extra;
    traced = traced_metrics;
    answer;
  }

(* -- the result line -------------------------------------------------- *)

let to_json (r : result) : Obs.Json.t =
  let open Obs.Json in
  let assoc l = Obj (List.map (fun (k, v) -> (k, Num v)) l) in
  Obj
    [
      ("wall_s", Num r.wall_s);
      ("setup_s", Num r.setup_s);
      ("loop_s", Num r.loop_s);
      ("rss_mb", Num r.rss_mb);
      ("timed", assoc r.timed);
      ("counts", assoc r.counts);
      ("traced", assoc r.traced);
      ("answer", Oracle.answer_to_json r.answer);
    ]

let of_json (j : Obs.Json.t) : result =
  let open Obs.Json in
  let get k =
    match member k j with Some v -> v | None -> failwith ("result lacks " ^ k)
  in
  let num k = Option.get (to_float (get k)) in
  let assoc k =
    match get k with
    | Obj l -> List.map (fun (k, v) -> (k, Option.get (to_float v))) l
    | _ -> failwith ("result: " ^ k ^ " is not an object")
  in
  {
    wall_s = num "wall_s";
    setup_s = num "setup_s";
    loop_s = num "loop_s";
    rss_mb = num "rss_mb";
    timed = assoc "timed";
    counts = assoc "counts";
    traced = assoc "traced";
    answer = Oracle.answer_of_json (get "answer");
  }
