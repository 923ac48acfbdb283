(* limpetMLIR command-line driver.

   Subcommands:
     list                   catalogue of bundled ionic models
     inspect MODEL          analyzed model (states, methods, LUTs, warnings)
     check MODEL...         lint models (diagnostics, --format=json, exit 1
                            on errors; --deep-verify runs the IR prover)
     emit MODEL             generated IR (scalar baseline or vector kernel)
     run MODEL              simulate and print an action-potential trace
                            (--health adds NaN/divergence watchdogs)
     serve MODEL            simulate with live /metrics + /healthz endpoints
     profile MODEL          trace a run; Chrome-trace / summary / Prometheus
     validate-metrics FILE  check a Prometheus exposition for format errors
     passes MODEL           before/after op counts for each optimization pass

   Models are resolved against the bundled registry first; a path to an
   EasyML file works everywhere a model name does. *)

open Cmdliner

let error_diag (code : string) (msg : string) : Easyml.Diag.t =
  Easyml.Diag.make ~sev:Easyml.Diag.Error ~code msg

(* Report a diagnostic against [file] and exit 1: how every command
   fails on input it cannot use. *)
let die ~(file : string) (d : Easyml.Diag.t) : 'a =
  Fmt.epr "%a@." (Easyml.Diag.pp ~file) d;
  exit 1

(* The whole of a file named on the command line.  A path that exists
   but cannot be read (a directory, no permission) is a [load-failed]
   diagnostic. *)
let read_input (path : string) : (string, Easyml.Diag.t) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
      Error (error_diag "load-failed" (Fmt.str "cannot read %s (%s)" path msg))

let read_input_or_die (path : string) : string =
  match read_input path with Ok text -> text | Error d -> die ~file:path d

let find_model (name : string) : (Easyml.Model.t, Easyml.Diag.t) result =
  match Models.Registry.find name with
  | Some e -> Ok (Models.Registry.model e)
  | None when Sys.file_exists name ->
      Result.bind (read_input name) (fun src ->
          Easyml.Sema.analyze_result
            ~name:Filename.(remove_extension (basename name))
            src
          |> Result.map_error (error_diag "load-failed"))
  | None ->
      Error
        (error_diag "unknown-model"
           (Fmt.str "unknown model %s (not in registry, not a file)" name))

(* Commands that cannot go on without their model report a load failure
   as a diagnostic and exit 1. *)
let load_model (name : string) : Easyml.Model.t =
  match find_model name with Ok m -> m | Error d -> die ~file:name d

(* -- flight recorder helpers ---------------------------------------- *)

let limpetmlir_version = "0.10.0"

let build_info () : Obs.Export.build_info =
  {
    Obs.Export.bi_version = limpetmlir_version;
    bi_ocaml = Sys.ocaml_version;
    bi_pipeline = Codegen.Cache.pipeline_id;
    bi_toolchain =
      (match Exec.Native.toolchain () with
      | Some tc -> tc.Exec.Native.id
      | None -> "unavailable");
  }

(* SIGINT/SIGTERM land here when a flight recorder is armed, so the
   main loop can write a crash dump before exiting with the
   conventional 128+signum code. *)
exception Interrupted of int

let arm_signals () : unit =
  let h code = Sys.Signal_handle (fun _ -> raise (Interrupted code)) in
  Sys.set_signal Sys.sigint (h 130);
  Sys.set_signal Sys.sigterm (h 143)

let health_text (d : Sim.Driver.t) : string option =
  match Sim.Driver.health_snapshot d with
  | None -> None
  | Some hs ->
      let nan, inf, range = Obs.Health.totals hs in
      Some
        (Printf.sprintf
           "%s: %d step(s) sampled, %d NaN, %d Inf, %d range violation(s)\n"
           (if hs.Obs.Health.hs_unhealthy then "UNHEALTHY" else "ok")
           hs.Obs.Health.hs_steps_sampled nan inf range)

(* Post-mortem bundle: structured report, recent trace events, health
   snapshot, and the newest on-disk checkpoint (when a writer ran). *)
let dump_crash ~(reason : string) ~(message : string) ~(d : Sim.Driver.t)
    (w : Obs.Recorder.writer) : unit =
  let report =
    let open Obs.Json in
    Obj
      [
        ("reason", Str reason);
        ("message", Str message);
        ("model", Str d.Sim.Driver.gen.Codegen.Kernel.model.Easyml.Model.name);
        ("engine", Str (Sim.Driver.engine_name d.Sim.Driver.engine));
        ("step", Num (float_of_int d.Sim.Driver.steps_done));
        ("time_ms", Num (Sim.Driver.time d));
        ("version", Str limpetmlir_version);
        ("pipeline", Str Codegen.Cache.pipeline_id);
      ]
  in
  let bundle =
    Obs.Recorder.crash_dump ~dir:(Obs.Recorder.writer_dir w)
      ?last_checkpoint:(Obs.Recorder.last w) ~events:(Obs.Tracer.tail ())
      ?health:(health_text d) ~report ()
  in
  Fmt.epr "# crash dump -> %s@." bundle

(* Run [f]; a hard health trip or a diffusion solve that failed with
   health monitoring off (exit 3), or a trapped signal (exit 128+signum)
   ends the process, with a crash dump when a flight recorder is
   armed. *)
let guarded ~(d : Sim.Driver.t) (writer : Obs.Recorder.writer option)
    (f : unit -> 'a) : 'a =
  let abort ~reason code message =
    Fmt.epr "%s@." message;
    Option.iter (dump_crash ~reason ~message ~d) writer;
    exit code
  in
  try f () with
  | Obs.Health.Tripped msg -> abort ~reason:"health-trip" 3 msg
  | Tissue.Monodomain.Solver_failed diag ->
      abort ~reason:"solver-failure" 3
        (Easyml.Diag.to_string
           ~file:d.Sim.Driver.gen.Codegen.Kernel.model.Easyml.Model.name diag)
  | Interrupted code ->
      abort ~reason:"signal" code
        (Printf.sprintf "interrupted by signal (exit %d)" code)

(* Where the driver's native library came from, when it runs native. *)
let native_artifact (d : Sim.Driver.t) : Codegen.Cache.native_artifact option =
  if d.Sim.Driver.engine = Sim.Driver.Native then
    Codegen.Cache.native_artifact d.Sim.Driver.gen
  else None

let artifact_cc_ms : Codegen.Cache.native_artifact -> float = function
  | Codegen.Cache.Compiled ms -> ms
  | Codegen.Cache.Disk | Codegen.Cache.Memory -> 0.0

(* Run manifest: everything an operator needs to reproduce or audit the
   run — the run spec, model identity, the engine that ran (and, for
   native, whether this process paid the C compiler), pipeline,
   toolchain, transval certificate count and BENCH-comparable timings. *)
let write_run_manifest (w : Obs.Recorder.writer) ~(spec : Spec.t)
    ~(m : Easyml.Model.t) ~(d : Sim.Driver.t) ~(wall_s : float)
    ~(compute_s : float) : unit =
  let open Obs.Json in
  let certs =
    List.fold_left
      (fun n (_, cs) -> n + List.length cs)
      0
      (Codegen.Cache.certificates ())
  in
  let meta = Spec.to_meta spec in
  let native =
    match native_artifact d with
    | Some a ->
        [
          ( "native",
            Obj
              [
                ("artifact", Str (Codegen.Cache.artifact_name a));
                ("cc_ms", Num (artifact_cc_ms a));
              ] );
        ]
    | None -> []
  in
  let manifest =
    Obj
      ([
        ("kind", Str (List.assoc "kind" meta));
        ("version", Str limpetmlir_version);
        ("ocaml", Str Sys.ocaml_version);
        ("model", Str m.Easyml.Model.name);
        ( "model_digest",
          Str (Digest.to_hex (Digest.string (Fmt.str "%a" Easyml.Model.pp m)))
        );
        ("config", Str (Codegen.Config.describe (Spec.config spec.codegen)));
        ("engine", Str (Sim.Driver.engine_name d.Sim.Driver.engine));
      ]
      @ native
      @ [
        ("pipeline", Str Codegen.Cache.pipeline_id);
        ("transval_certificates", Num (float_of_int certs));
        ("toolchain", Str (build_info ()).Obs.Export.bi_toolchain);
        ("spec", Obj (List.map (fun (k, v) -> (k, Str v)) meta));
        ("timings", Obj [ ("compute_s", Num compute_s); ("wall_s", Num wall_s) ]);
      ])
  in
  let path =
    Obs.Recorder.write_manifest ~dir:(Obs.Recorder.writer_dir w) manifest
  in
  Fmt.pr "# run manifest -> %s@." path

(* -- common args ---------------------------------------------------- *)

(* A spec built from flags, held to what the create functions accept. *)
let checked (s : Spec.t) : Spec.t =
  match Spec.out_of_range s with
  | None -> s
  | Some r -> Flags.bad_flag ~flag:r.flag ~need:r.need r.got

let model_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")

let width_arg =
  Flags.width
    Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"W"
           ~doc:"Vector width: 1 (scalar baseline), 2 (SSE), 4 (AVX2), 8 \
                 (AVX-512).")

let layout_arg =
  let layout =
    Arg.conv'
      ( (fun s ->
          Option.to_result (Runtime.Layout.of_string s)
            ~none:("unknown layout " ^ s ^ " (aos, soa, aosoa<N>)")),
        Fmt.of_to_string Runtime.Layout.name )
  in
  Arg.(value & opt (some layout) None & info [ "layout" ] ~docv:"L"
         ~doc:"Data layout override: aos, soa, or aosoa<N>.")

let no_lut_arg =
  Arg.(value & flag & info [ "no-lut" ] ~doc:"Disable lookup-table generation.")

let autovec_arg =
  Arg.(value & flag & info [ "autovec" ]
         ~doc:"icc-style auto-vectorization cost profile (see paper section 5).")

let spline_arg =
  Arg.(value & flag & info [ "spline" ]
         ~doc:"Cubic (Catmull-Rom) lookup-table interpolation instead of \
               linear (the paper's section 7 future-work item).")

let codegen_t : Spec.codegen Term.t =
  let make width layout no_lut autovec spline =
    { Spec.width; layout; no_lut; autovec; spline }
  in
  Term.(const make $ width_arg $ layout_arg $ no_lut_arg $ autovec_arg
        $ spline_arg)

let engine_arg =
  Arg.(value
       & opt (enum Sim.Driver.engines) Sim.Driver.Batched
       & info [ "engine" ] ~docv:"E"
           ~doc:"Execution engine: $(b,batched) (tile-batched loop \
                 inversion over coalesced scratch rows, default), \
                 $(b,native) (the lowered kernel emitted as C, compiled by \
                 the system toolchain — \\$LIMPET_CC, else cc/gcc/clang — \
                 and dlopen'ed; when no toolchain is found it degrades to \
                 $(b,batched) with a warning, never an error), \
                 $(b,closure) (per-op closures), or $(b,interp) (slow \
                 tree-walking reference).  $(b,fused) is the old name of \
                 $(b,batched).  All four engines produce bitwise-identical \
                 trajectories.")

let tile_arg =
  Arg.(value & opt int 0 & info [ "tile" ] ~docv:"N"
         ~doc:"Batched-engine tile size in vector blocks \
               (0 = auto-size for L1; ignored by the other engines).")

let dt_arg = Arg.(value & opt float 0.01 & info [ "dt" ] ~docv:"MS")
let threads_arg = Arg.(value & opt int 1 & info [ "threads" ] ~docv:"T")

let cells_arg (default : int) =
  Arg.(value & opt int default & info [ "cells" ] ~docv:"N"
         ~doc:"Number of cells.")

(* The run spec a simulating command builds from its flags; the command
   supplies its shape. *)
let spec_t ~(steps : int) ~(steps_doc : string) :
    (Spec.shape -> Spec.t) Term.t =
  let make model codegen engine tile dt steps threads shape =
    checked { Spec.model; codegen; engine; tile; dt; steps; threads; shape }
  in
  let steps =
    Arg.(value & opt int steps & info [ "steps" ] ~docv:"N" ~doc:steps_doc)
  in
  Term.(const make $ model_arg $ codegen_t $ engine_arg $ tile_arg $ dt_arg
        $ steps $ threads_arg)

let ckpt_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Arm the flight recorder: write periodic checkpoints (exact \
                 Int64 bit patterns of every state buffer, with an MD5 \
                 content digest) under $(docv), plus a run manifest at the \
                 end and a crash-dump bundle on a hard health trip or \
                 SIGINT/SIGTERM.  A run resumed from any checkpoint with \
                 $(b,limpetmlir replay) finishes bitwise-identical to the \
                 uninterrupted run (native engine: \u{2264} 2 ULP).")

let ckpt_stride_arg =
  Flags.positive "checkpoint-stride"
    Arg.(value & opt int 1000 & info [ "checkpoint-stride" ] ~docv:"N"
           ~doc:"Checkpoint every N steps (with --checkpoint-dir).")

let ckpt_keep_arg =
  Flags.positive "checkpoint-keep"
    Arg.(value & opt int 3 & info [ "checkpoint-keep" ] ~docv:"K"
           ~doc:"Keep only the newest K checkpoint files (rotation).")

(* --checkpoint-dir with its stride and keep: a flight recorder writing
   the run spec into every checkpoint, with SIGINT/SIGTERM trapped for
   its crash dump *)
let recorder_t : (Spec.t -> Obs.Recorder.writer) option Term.t =
  let make dir stride keep =
    Option.map
      (fun dir spec ->
        arm_signals ();
        Obs.Recorder.create_writer ~keep ~extra:(Spec.to_meta spec) ~dir
          ~stride ())
      dir
  in
  Term.(const make $ ckpt_dir_arg $ ckpt_stride_arg $ ckpt_keep_arg)

let final_digest_arg =
  Arg.(value & flag & info [ "final-digest" ]
         ~doc:"Print the MD5 content digest of the final state (always \
               printed when --checkpoint-dir is set); two runs reaching \
               the same state bit-for-bit print the same digest.")

let write_text (path : string) (text : string) : unit =
  let oc = open_out path in
  output_string oc text;
  if text = "" || text.[String.length text - 1] <> '\n' then
    output_char oc '\n';
  close_out oc

(* -- list ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the bundled ionic models." in
  let run () =
    Fmt.pr "%-24s %-7s %-11s %s@." "name" "class" "fidelity" "description";
    List.iter
      (fun (e : Models.Model_def.entry) ->
        Fmt.pr "%-24s %-7s %-11s %s@." e.name
          (Models.Model_def.cls_name e.cls)
          (match e.fidelity with
          | Models.Model_def.Faithful -> "faithful"
          | Structural -> "structural")
          e.description)
      Models.Registry.all;
    List.iter
      (fun (c, n) -> Fmt.pr "@.%d %s" n (Models.Model_def.cls_name c))
      (Models.Registry.class_counts ());
    Fmt.pr " = %d models@." (List.length Models.Registry.all)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -- inspect -------------------------------------------------------- *)

let inspect_cmd =
  let doc = "Show the analyzed form of a model." in
  let run name =
    let m = load_model name in
    Fmt.pr "%a@." Easyml.Model.pp m;
    List.iter (fun d -> Fmt.pr "%a@." (Easyml.Diag.pp ~file:name) d) m.warnings
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ model_arg)

(* -- check ---------------------------------------------------------- *)

let check_cmd =
  let doc =
    "Lint EasyML models: analyzer diagnostics plus range-based checks \
     (unused state variables, lookup-table domains, markov occupancies). \
     Exits non-zero when any error-severity diagnostic is found.  A model \
     that passes runs identically on all four execution engines — \
     $(b,batched) (tile-batched loop inversion, default), $(b,native) \
     (JIT-compiled C; degrades to batched with a warning when no C \
     toolchain is available), $(b,closure), and $(b,interp) (reference) \
     — selected with $(b,--engine) on run/tissue/profile/serve."
  in
  let models =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Models to check (registry names or .easyml paths).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Check every bundled model.")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,text) (GCC-style, one line per \
                   diagnostic) or $(b,json) (an array of objects).")
  in
  let deep =
    Arg.(value & flag & info [ "deep-verify" ]
           ~doc:"Also generate the scalar and vector kernels for each model \
                 and run the deep IR verifier (structural checks plus \
                 dataflow-backed range and initialization proofs).")
  in
  let validate_passes =
    Arg.(value & flag & info [ "validate-passes" ]
           ~doc:"Translation validation: compile each model's scalar and \
                 vector kernels with the optimization pipeline in \
                 validating mode, proving every pass application \
                 semantics-preserving.  A refutation is an error (with the \
                 first diverging symbolic terms and the responsible pass); \
                 an undecided obligation is a warning.")
  in
  let certs_out =
    Arg.(value & opt (some string) None & info [ "certs-out" ] ~docv:"FILE"
           ~doc:"With --validate-passes, write all per-pass certificates \
                 (pass id, IR digests, obligation count, verdict, time) \
                 as JSON to $(docv).")
  in
  let run models all format deep validate_passes certs_out =
    let names =
      if all then List.map (fun (e : Models.Model_def.entry) -> e.name)
          Models.Registry.all
      else models
    in
    if names = [] then
      die ~file:"limpetmlir"
        (error_diag "no-models" "no models to check (name one or pass --all)");
    if validate_passes then begin
      Codegen.Cache.set_validation true;
      Codegen.Cache.clear ()
    end;
    let json_items = ref [] in
    let n_err = ref 0 and n_warn = ref 0 and n_info = ref 0 in
    let emit_diag ~file (d : Easyml.Diag.t) =
      (match d.Easyml.Diag.sev with
      | Easyml.Diag.Error -> incr n_err
      | Easyml.Diag.Warning -> incr n_warn
      | Easyml.Diag.Info -> incr n_info);
      match format with
      | `Text -> Fmt.pr "%a@." (Easyml.Diag.pp ~file) d
      | `Json -> json_items := Easyml.Diag.to_json ~file d :: !json_items
    in
    List.iter
      (fun name ->
        match find_model name with
        | exception e ->
            emit_diag ~file:name
              (Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"load-failed"
                 "%s" (Printexc.to_string e))
        | Error d -> emit_diag ~file:name d
        | Ok m ->
            List.iter (emit_diag ~file:name) (Analysis.Lint.check m);
            if deep then
              List.iter
                (fun cfg ->
                  match Codegen.Cache.generate cfg m with
                  | exception e ->
                      emit_diag ~file:name
                        (Easyml.Diag.makef ~sev:Easyml.Diag.Error
                           ~code:"codegen-failed" "%s (%s)"
                           (Printexc.to_string e)
                           (Codegen.Config.describe cfg))
                  | g ->
                      List.iter
                        (fun err ->
                          emit_diag ~file:name
                            (Easyml.Diag.makef ~sev:Easyml.Diag.Error
                               ~code:"deep-verify" "%a (%s)"
                               Ir.Verifier.pp_error err
                               (Codegen.Config.describe cfg)))
                        (Analysis.Deep.verify_module g.Codegen.Kernel.modl))
                [ Codegen.Config.baseline; Codegen.Config.mlir ~width:8 ];
            if validate_passes then
              List.iter
                (fun cfg ->
                  match Codegen.Cache.generate cfg m with
                  | exception Codegen.Cache.Validation_failed cert ->
                      Option.iter (emit_diag ~file:name)
                        (Analysis.Transval.diag_of_cert cert)
                  | exception e ->
                      emit_diag ~file:name
                        (Easyml.Diag.makef ~sev:Easyml.Diag.Error
                           ~code:"codegen-failed" "%s (%s)"
                           (Printexc.to_string e)
                           (Codegen.Config.describe cfg))
                  | _ -> ())
                [ Codegen.Config.baseline; Codegen.Config.mlir ~width:8 ])
      names;
    if validate_passes then begin
      let certs = Codegen.Cache.certificates () in
      let n_certs = ref 0 and n_unknown = ref 0 and n_refuted = ref 0 in
      let total_ms = ref 0.0 in
      List.iter
        (fun (key, cs) ->
          List.iter
            (fun (c : Analysis.Transval.cert) ->
              incr n_certs;
              total_ms := !total_ms +. c.Analysis.Transval.c_ms;
              if Analysis.Transval.is_refuted c then incr n_refuted
              else if Analysis.Transval.is_unknown c then begin
                incr n_unknown;
                Option.iter (emit_diag ~file:key)
                  (Analysis.Transval.diag_of_cert c)
              end)
            cs)
        certs;
      (match certs_out with
      | None -> ()
      | Some file ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "[";
          let first = ref true in
          List.iter
            (fun (key, cs) ->
              List.iter
                (fun c ->
                  if not !first then Buffer.add_string buf ",\n ";
                  first := false;
                  Buffer.add_string buf
                    (Printf.sprintf "{\"key\": \"%s\", \"cert\": %s}"
                       (Easyml.Diag.json_escape key)
                       (Analysis.Transval.cert_to_json c)))
                cs)
            certs;
          Buffer.add_string buf "]\n";
          let oc = open_out file in
          output_string oc (Buffer.contents buf);
          close_out oc);
      if format = `Text then
        Fmt.pr
          "validate-passes: %d certificate(s), %d proved, %d unknown, \
           %d refuted (%.1f ms)@."
          !n_certs
          (!n_certs - !n_unknown - !n_refuted)
          !n_unknown !n_refuted !total_ms
    end;
    (match format with
    | `Text ->
        Fmt.pr "checked %d model(s): %d error(s), %d warning(s), %d info@."
          (List.length names) !n_err !n_warn !n_info
    | `Json ->
        Fmt.pr "[%s]@." (String.concat ",\n " (List.rev !json_items)));
    if !n_err > 0 then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ models $ all $ format $ deep $ validate_passes
          $ certs_out)

(* -- emit ----------------------------------------------------------- *)

let emit_cmd =
  let doc = "Print the generated IR module for a model." in
  let no_opt =
    Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the optimization pipeline.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the IR to a file instead of stdout (re-loadable with \
                 the parse subcommand).")
  in
  let c_out =
    Arg.(value & flag & info [ "c" ]
           ~doc:"Emit the C translation unit the native engine would \
                 JIT-compile (the IR printed through the C backend, with \
                 a provenance header) instead of the IR itself.")
  in
  let run name codegen no_opt c_out output =
    let m = load_model name in
    let cfg = Spec.config codegen in
    let g = Codegen.Cache.generate ~optimize:(not no_opt) cfg m in
    (match Ir.Verifier.verify_module g.modl with
    | [] -> ()
    | errs -> Fmt.epr "%s@." (Ir.Verifier.errors_to_string errs));
    let text =
      if c_out then
        Codegen.C_backend.emit_module
          ~banner:
            [
              "model:    " ^ m.Easyml.Model.name;
              "config:   " ^ Codegen.Config.describe cfg;
              "pipeline: " ^ Codegen.Cache.pipeline_id;
              "flags:    " ^ String.concat " " Exec.Native.flags;
            ]
          g.modl
      else Ir.Printer.module_to_string g.modl
    in
    match output with
    | None -> Fmt.pr "%s@." text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        output_char oc '\n';
        close_out oc;
        Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ model_arg $ codegen_t $ no_opt $ c_out $ output)

(* -- run ------------------------------------------------------------ *)

let run_cmd =
  let doc = "Simulate a model and print an action-potential trace." in
  let every =
    Arg.(value & opt int 1000 & info [ "trace-every" ] ~docv:"N"
           ~doc:"Print the trace every N steps (0 = summary only).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace of the whole run (compile + every \
                 step) and write it to $(docv); load it in Perfetto or \
                 chrome://tracing.  Tracing never changes results.")
  in
  let health =
    Arg.(value & flag & info [ "health" ]
           ~doc:"Monitor numerical health while running: per-variable \
                 NaN/Inf counts, gate clamp violations and a \
                 membrane-potential watchdog.  A hard trip (NaN, Inf, Vm \
                 out of range) aborts the run with exit code 3 and a \
                 report naming the variable, cell and step.  Monitoring \
                 never changes results.")
  in
  let health_stride =
    Flags.positive "health-stride"
      Arg.(value & opt int 16 & info [ "health-stride" ] ~docv:"N"
             ~doc:"Sample health every N steps (with --health).")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Run the optimization pipeline in validating mode: prove \
                 every pass application semantics-preserving before \
                 simulating.  A refutation aborts with exit code 4.")
  in
  let run spec cells every trace health health_stride validate recorder
      final_digest =
    let spec : Spec.t = spec (Spec.Cells cells) in
    let m = load_model spec.model in
    let cfg = Spec.config spec.codegen in
    (* checkpointed runs keep the tracer on so a crash dump carries the
       ring-buffer tail of recent events — tracing never changes results *)
    if trace <> None || recorder <> None then begin
      Obs.Tracer.reset ();
      Obs.Tracer.enable ()
    end;
    if validate then Codegen.Cache.set_validation true;
    let g, d =
      try
        let g = Codegen.Cache.generate cfg m in
        (g, Spec.driver (Spec.create spec g))
      with Codegen.Cache.Validation_failed cert ->
        Fmt.epr "translation validation refuted pass %s:@.%s@."
          cert.Analysis.Transval.c_pass
          (Analysis.Transval.cert_to_json cert);
        exit 4
    in
    if health then
      Sim.Driver.enable_health
        ~cfg:{ Obs.Health.stride = health_stride; policy = Obs.Health.Abort }
        d;
    let stim = Sim.Stim.default in
    let writer = Option.map (fun create -> create spec) recorder in
    Fmt.pr "# model=%s config=%s cells=%d steps=%d dt=%gms@." m.name
      (Codegen.Config.describe cfg) cells spec.steps spec.dt;
    if every > 0 then Fmt.pr "# t_ms Vm Iion@.";
    let compute_time = ref 0.0 in
    let wall0 = Unix.gettimeofday () in
    guarded ~d writer (fun () ->
        for s = 1 to spec.steps do
          compute_time :=
            !compute_time
            +. Sim.Driver.step_timed ~nthreads:spec.threads ~stim d;
          (match writer with
          | Some w when Obs.Recorder.due w ~step:d.Sim.Driver.steps_done ->
              ignore (Obs.Recorder.record w (Sim.Driver.capture d))
          | _ -> ());
          if every > 0 && s mod every = 0 then
            Fmt.pr "%8.2f %10.4f %10.4f@." (Sim.Driver.time d)
              (Sim.Driver.vm d 0)
              (Sim.Driver.ext d "Iion" 0)
        done);
    let wall_s = Unix.gettimeofday () -. wall0 in
    Fmt.pr "# compute stage: %.3f s wall clock@." !compute_time;
    if final_digest || writer <> None then
      Fmt.pr "# final state digest: %s@."
        (Obs.Recorder.digest (Sim.Driver.capture d));
    Option.iter
      (fun w ->
        write_run_manifest w ~spec ~m ~d ~wall_s ~compute_s:!compute_time)
      writer;
    (match Sim.Driver.health_snapshot d with
    | None -> ()
    | Some hs ->
        let nan, inf, range = Obs.Health.totals hs in
        Fmt.pr "# health: %s — %d step(s) sampled, %d NaN, %d Inf, %d range \
                violation(s)@."
          (if hs.Obs.Health.hs_unhealthy then "UNHEALTHY" else "ok")
          hs.Obs.Health.hs_steps_sampled nan inf range);
    (match trace with
    | None -> ()
    | Some path ->
        Obs.Tracer.disable ();
        let snap = Obs.Tracer.snapshot () in
        write_text path (Obs.Export.chrome snap);
        Fmt.pr "# trace: %d events -> %s@."
          (List.length snap.Obs.Tracer.events) path);
    let r =
      Machine.Perfmodel.run_kernel g ~ncells:cells ~steps:spec.steps
        ~nthreads:spec.threads
    in
    Fmt.pr "# machine model prediction on the paper's platform: %.3f s@."
      r.Machine.Perfmodel.seconds
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run
          $ spec_t ~steps:50_000 ~steps_doc:"Number of 0.01 ms time steps."
          $ cells_arg 16 $ every $ trace $ health $ health_stride $ validate
          $ recorder_t $ final_digest_arg)

(* -- tissue --------------------------------------------------------- *)

let tissue_cmd =
  let doc =
    "Tissue-scale monodomain simulation: the generated ionic kernel on \
     every node of a 1-D cable or 2-D sheet, coupled to an implicit \
     diffusion solve by operator splitting.  Measures the activation \
     map, conduction velocity and reentry (reactivation) counts."
  in
  let nx =
    Arg.(value & opt int 128 & info [ "nx" ] ~docv:"N"
           ~doc:"Nodes along x.")
  in
  let ny =
    Arg.(value & opt int 1 & info [ "ny" ] ~docv:"N"
           ~doc:"Nodes along y (1 = cable, >1 = sheet).")
  in
  let dx =
    Arg.(value & opt float 0.01 & info [ "dx" ] ~docv:"CM"
           ~doc:"Node spacing, cm.")
  in
  let sigma =
    Arg.(value & opt float 0.001 & info [ "sigma" ] ~docv:"S"
           ~doc:"Effective diffusivity, cm²/ms.")
  in
  let splitting =
    Arg.(value
         & opt (enum Spec.splittings) Tissue.Monodomain.Godunov
         & info [ "splitting" ] ~docv:"S"
             ~doc:"Operator splitting: $(b,godunov) (ionic then IMEX \
                   exchange and implicit diffusion, first-order, default) or \
                   $(b,strang) (half diffusion / full ionic / half \
                   diffusion, second-order).")
  in
  let protocol =
    Arg.(value
         & opt (enum [ ("s1", `S1); ("s1s2", `S1s2);
                       ("restitution", `Restitution) ])
             `S1
         & info [ "protocol" ] ~docv:"P"
             ~doc:"Stimulus protocol: $(b,s1) (planar wave from the x=0 \
                   strip, default), $(b,s1s2) (cross-field shock for \
                   spiral induction; set --s2-start), or \
                   $(b,restitution) (S1 pacing train plus premature S2; \
                   set --s1-count/--s1-interval/--s2-coupling).")
  in
  let stim_width =
    Arg.(value & opt int 5 & info [ "stim-width" ] ~docv:"N"
           ~doc:"Stimulated strip width in cells.")
  in
  let s2_start =
    Arg.(value & opt float 340.0 & info [ "s2-start" ] ~docv:"MS"
           ~doc:"S2 shock time for --protocol=s1s2.")
  in
  let s1_count =
    Arg.(value & opt int 4 & info [ "s1-count" ] ~docv:"N"
           ~doc:"S1 pulses in the restitution train.")
  in
  let s1_interval =
    Arg.(value & opt float 400.0 & info [ "s1-interval" ] ~docv:"MS"
           ~doc:"S1 pacing interval for --protocol=restitution.")
  in
  let s2_coupling =
    Arg.(value & opt float 300.0 & info [ "s2-coupling" ] ~docv:"MS"
           ~doc:"S2 coupling interval after the last S1.")
  in
  let block_check =
    Arg.(value & opt float 0.0 & info [ "block-check" ] ~docv:"MS"
           ~doc:"Arm the conduction-block detector: trip unless \
                 propagation left the stimulated region by this time \
                 (0 = off).")
  in
  let tissue_t : Spec.tissue Term.t =
    let make nx ny dx sigma splitting protocol stim_width s2_start n_s1
        interval s2_coupling block_check =
      let protocol : Spec.protocol =
        match protocol with
        | `S1 -> S1
        | `S1s2 -> S1s2 { s2_start }
        | `Restitution -> Restitution { n_s1; interval; s2_coupling }
      in
      { Spec.nx; ny; dx; sigma; splitting; block_check; stim_width; protocol }
    in
    Term.(const make $ nx $ ny $ dx $ sigma $ splitting $ protocol
          $ stim_width $ s2_start $ s1_count $ s1_interval $ s2_coupling
          $ block_check)
  in
  let health =
    Arg.(value & flag & info [ "health" ]
           ~doc:"Numerical-health monitoring with the Abort policy: a \
                 hard trip (NaN, Inf, Vm range, conduction block) exits \
                 with code 3.")
  in
  let map_out =
    Arg.(value & opt (some string) None & info [ "map" ] ~docv:"FILE"
           ~doc:"Write the activation map to $(docv): CSV rows \
                 (cell,x,y,activation_ms,reactivations) when the name \
                 ends in .csv, a JSON object otherwise.")
  in
  let run spec (t : Spec.tissue) health map_out recorder final_digest =
    let spec : Spec.t = spec (Spec.Tissue t) in
    let m = load_model spec.model in
    if recorder <> None then begin
      Obs.Tracer.reset ();
      Obs.Tracer.enable ()
    end;
    let g = Codegen.Cache.generate (Spec.config spec.codegen) m in
    let sim =
      match Spec.create spec g with
      | Spec.Tissue_sim sim -> sim
      | Spec.Cell_sim _ -> assert false
    in
    let geom = Tissue.Monodomain.geometry sim in
    let d = Tissue.Monodomain.driver sim in
    if health then
      Sim.Driver.enable_health
        ~cfg:{ Obs.Health.default_config with policy = Obs.Health.Abort }
        d;
    let writer = Option.map (fun create -> create spec) recorder in
    Fmt.pr "# tissue model=%s %s engine=%s splitting=%s protocol=%s \
            dt=%gms sigma=%g threads=%d@."
      m.name
      (Tissue.Geometry.describe geom)
      (Sim.Driver.engine_name d.Sim.Driver.engine)
      (fst (List.find (fun (_, s) -> s = t.splitting) Spec.splittings))
      (Tissue.Monodomain.protocol sim).Tissue.Protocol.name spec.dt t.sigma
      spec.threads;
    let wall =
      guarded ~d writer (fun () ->
          Tissue.Monodomain.run ?ckpt:writer sim ~steps:spec.steps)
    in
    if final_digest || writer <> None then
      Fmt.pr "# final state digest: %s@."
        (Obs.Recorder.digest (Tissue.Monodomain.capture sim));
    Option.iter
      (fun w -> write_run_manifest w ~spec ~m ~d ~wall_s:wall ~compute_s:wall)
      writer;
    let act = Tissue.Monodomain.activation sim in
    let n = Tissue.Geometry.cells geom in
    Fmt.pr "# steps=%d time=%gms wall=%.3fs cells/sec=%.0f@." spec.steps
      (Tissue.Monodomain.time sim)
      wall
      (float_of_int (n * spec.steps) /. wall);
    Fmt.pr "# activated %d/%d cell(s); %d reactivated; conduction block: %s@."
      (Tissue.Activation.activated act)
      n
      (Tissue.Activation.reactivated act)
      (if Tissue.Monodomain.blocked sim then "TRIPPED" else "no");
    let pa, pb = Tissue.Monodomain.probes sim in
    (match Tissue.Monodomain.conduction_velocity sim with
    | Some cv ->
        Fmt.pr "# conduction velocity cells %d->%d: %.4f cm/ms (%.1f cm/s)@."
          pa pb cv (cv *. 1000.0)
    | None ->
        Fmt.pr "# conduction velocity cells %d->%d: wave did not reach both \
                probes@."
          pa pb);
    match map_out with
    | None -> ()
    | Some path ->
        let text =
          if Filename.check_suffix path ".csv" then
            Tissue.Activation.to_csv act geom
          else
            Tissue.Activation.to_json
              ?cv:(Tissue.Monodomain.conduction_velocity sim)
              act geom
        in
        write_text path text;
        Fmt.pr "# activation map -> %s@." path
  in
  Cmd.v (Cmd.info "tissue" ~doc)
    Term.(const run $ spec_t ~steps:5_000 ~steps_doc:"Number of time steps."
          $ tissue_t $ health $ map_out $ recorder_t $ final_digest_arg)

(* -- replay ---------------------------------------------------------- *)

let replay_cmd =
  let doc =
    "Resume a simulation from a flight-recorder checkpoint (written by \
     run/tissue/serve with --checkpoint-dir).  The checkpoint is \
     self-describing: the model, configuration, engine and population \
     are rebuilt from its metadata, the state buffers are restored \
     bit-for-bit, and the remaining steps are executed.  The resumed \
     trajectory finishes bitwise-identical to the uninterrupted run on \
     every engine (native: the kernels' \u{2264} 2 ULP bound); compare \
     the printed final state digests."
  in
  let file =
    Arg.(required & pos 0 (some Arg.file) None & info [] ~docv:"CHECKPOINT")
  in
  let steps_override =
    Arg.(value & opt (some int) None & info [ "steps" ] ~docv:"N"
           ~doc:"Steps to run from the checkpoint (default: the recorded \
                 total minus the checkpoint's step index).")
  in
  let run file threads steps_override =
    let ok = function Ok x -> x | Error d -> die ~file d in
    let ck = ok (Obs.Recorder.read file) in
    let spec = checked { (ok (Spec.of_checkpoint ck)) with threads } in
    let m = load_model spec.model in
    let sim = Spec.create spec (Codegen.Cache.generate (Spec.config spec.codegen) m) in
    ok (Spec.restore sim ck);
    let d = Spec.driver sim in
    let remaining =
      match steps_override with
      | Some s -> s
      | None -> max 0 (spec.steps - ck.Obs.Recorder.ck_step)
    in
    Fmt.pr "# replay %s: model=%s engine=%s resuming at step %d/%d t=%gms \
            (+%d step(s))@."
      file m.name
      (Sim.Driver.engine_name d.Sim.Driver.engine)
      ck.Obs.Recorder.ck_step spec.steps (Sim.Driver.time d) remaining;
    let t0 = Unix.gettimeofday () in
    guarded ~d None (fun () ->
        for _ = 1 to remaining do
          Spec.step spec sim
        done);
    Fmt.pr "# wall: %.3f s@." (Unix.gettimeofday () -. t0);
    Fmt.pr "# final state digest: %s@." (Obs.Recorder.digest (Spec.capture sim))
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ file $ threads_arg $ steps_override)

(* -- profile -------------------------------------------------------- *)

let profile_cmd =
  let doc =
    "Profile a model run: trace compile and simulation phases (pass \
     pipeline, kernel cache, per-step compute/update stages, per-Domain \
     chunks) and export the result."
  in
  let format =
    Arg.(value
         & opt
             (enum
                [ ("summary", `Summary); ("chrome", `Chrome);
                  ("prometheus", `Prometheus) ])
             `Summary
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,summary) (per-span table, default), \
                   $(b,chrome) (trace-event JSON for Perfetto / \
                   chrome://tracing), or $(b,prometheus) (metrics text \
                   exposition).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the export to a file instead of stdout.")
  in
  let run spec cells format output =
    let spec : Spec.t = spec (Spec.Cells cells) in
    let m = load_model spec.model in
    (* Clear the kernel cache so the compile half (passes, codegen,
       verification) shows up in the profile rather than being served
       from a warm cache. *)
    Codegen.Cache.clear ();
    Obs.Tracer.reset ();
    Obs.Tracer.enable ();
    let sim =
      Spec.create spec (Codegen.Cache.generate (Spec.config spec.codegen) m)
    in
    let d = Spec.driver sim in
    (* health section rides along in the profile (Warn policy: a sick
       model should still produce its profile) *)
    Sim.Driver.enable_health d;
    for _ = 1 to spec.steps do
      Spec.step spec sim
    done;
    Obs.Tracer.disable ();
    let snap = Obs.Tracer.snapshot () in
    let health = Sim.Driver.health_snapshot d in
    let native_line =
      match Exec.Native.toolchain () with
      | Some tc ->
          Printf.sprintf "native backend: available (%s)\n%s"
            tc.Exec.Native.id
            (match native_artifact d with
            | Some a ->
                Printf.sprintf "native kernel: %s (%.1f ms cc)\n"
                  (Codegen.Cache.artifact_name a) (artifact_cc_ms a)
            | None -> "")
      | None ->
          "native backend: unavailable (no C compiler; --engine native \
           falls back to batched)\n"
    in
    let build = build_info () in
    let text =
      match format with
      | `Summary -> native_line ^ Obs.Export.summary ?health ~build snap
      | `Chrome -> Obs.Export.chrome snap
      | `Prometheus -> Obs.Export.prometheus ?health ~build snap
    in
    (match output with
    | None -> print_string text
    | Some path ->
        write_text path text;
        Fmt.pr "wrote %s (%d events, %d counters%s)@." path
          (List.length snap.Obs.Tracer.events)
          (List.length snap.Obs.Tracer.counters)
          (if snap.Obs.Tracer.dropped > 0 then
             Printf.sprintf ", %d dropped" snap.Obs.Tracer.dropped
           else ""))
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run
          $ spec_t ~steps:1000 ~steps_doc:"Number of time steps to profile."
          $ cells_arg 256 $ format $ output)

(* -- serve ----------------------------------------------------------- *)

let serve_cmd =
  let doc =
    "Run a simulation with live observability endpoints: GET /metrics \
     serves a Prometheus text exposition of the tracer and health \
     monitor, GET /healthz answers 200 while the simulation is \
     numerically healthy and 503 after a hard watchdog trip (NaN, Inf, \
     Vm out of range).  Stops cleanly on SIGINT/SIGTERM."
  in
  let port =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"P"
           ~doc:"Listen port on 127.0.0.1 (0 picks an ephemeral port, \
                 printed at startup).")
  in
  let health_stride =
    Flags.positive "health-stride"
      Arg.(value & opt int 16 & info [ "health-stride" ] ~docv:"N"
             ~doc:"Sample health every N steps.")
  in
  let refresh =
    Flags.positive "refresh"
      Arg.(value & opt int 200 & info [ "refresh" ] ~docv:"N"
             ~doc:"Re-publish /metrics every N steps.")
  in
  let pace =
    Arg.(value & opt float 0.0 & info [ "pace" ] ~docv:"SECONDS"
           ~doc:"Sleep between steps (throttle a demo run; 0 = flat out).")
  in
  let tissue_flag =
    Arg.(value & flag & info [ "tissue" ]
           ~doc:"Serve a tissue run instead of a single-cell population: \
                 a 1-D S1-paced monodomain cable of $(b,--cells) nodes, \
                 with the limpetmlir_tissue_* metric families \
                 (activation coverage, conduction-block trips, measured \
                 conduction velocity) added to /metrics.")
  in
  let run spec port cells health_stride refresh pace tissue recorder =
    let spec : Spec.t =
      spec
        (if not tissue then Spec.Cells cells
         else
           Spec.Tissue
             { Spec.nx = max 2 cells; ny = 1; dx = 0.01;
               sigma = Tissue.Monodomain.default_config.sigma;
               splitting = Tissue.Monodomain.Godunov; block_check = 100.0;
               stim_width = 5; protocol = S1_paced })
    in
    let m = load_model spec.model in
    Obs.Tracer.reset ();
    Obs.Tracer.enable ();
    let sim =
      Spec.create spec (Codegen.Cache.generate (Spec.config spec.codegen) m)
    in
    let d = Spec.driver sim in
    let tsim =
      match sim with Spec.Tissue_sim s -> Some s | Spec.Cell_sim _ -> None
    in
    Sim.Driver.enable_health
      ~cfg:
        { Obs.Health.default_config with Obs.Health.stride = health_stride }
      d;
    let h = Option.get (Sim.Driver.health d) in
    let writer = Option.map (fun create -> create spec) recorder in
    (* The sim loop publishes the exposition between steps; the HTTP
       thread only ever reads these atomics, so it never races the
       tracer's or the monitor's internals. *)
    let build = build_info () in
    let metrics = Atomic.make "" in
    let publish () =
      let snap = Obs.Tracer.snapshot () in
      let health = Sim.Driver.health_snapshot d in
      let tissue = Option.map Tissue.Monodomain.stats tsim in
      let checkpoint = Option.map Obs.Recorder.stats writer in
      let progress =
        {
          Obs.Export.pg_model = m.name;
          pg_step = d.Sim.Driver.steps_done;
          pg_steps_total = spec.steps;
          pg_time_ms = Sim.Driver.time d;
        }
      in
      Atomic.set metrics
        (Obs.Export.prometheus ?health ?tissue ~build ?checkpoint ~progress
           snap)
    in
    publish ();
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    let strip_query path =
      match String.index_opt path '?' with
      | Some i -> String.sub path 0 i
      | None -> path
    in
    let server =
      Obs.Httpd.start ~port (fun path ->
          match strip_query path with
          | "/metrics" ->
              Some
                {
                  Obs.Httpd.status = 200;
                  content_type = "text/plain; version=0.0.4";
                  body = Atomic.get metrics;
                }
          | "/healthz" ->
              if Obs.Health.unhealthy h then
                Some
                  {
                    Obs.Httpd.status = 503;
                    content_type = "text/plain";
                    body = "unhealthy\n";
                  }
              else
                Some
                  {
                    Obs.Httpd.status = 200;
                    content_type = "text/plain";
                    body = "ok\n";
                  }
          | _ -> None)
    in
    Fmt.pr "# serving model=%s on http://127.0.0.1:%d (/metrics, /healthz); \
            cells=%d dt=%gms health-stride=%d@."
      m.name (Obs.Httpd.port server) cells spec.dt health_stride;
    (try
       let n = ref 0 in
       while
         (not (Atomic.get stop)) && (spec.steps = 0 || !n < spec.steps)
       do
         Spec.step spec sim;
         incr n;
         (match writer with
         | Some w when Obs.Recorder.due w ~step:d.Sim.Driver.steps_done ->
             ignore (Obs.Recorder.record w (Spec.capture sim))
         | _ -> ());
         if !n mod refresh = 0 then publish ();
         if pace > 0.0 then Unix.sleepf pace
       done;
       publish ();
       if spec.steps > 0 && !n >= spec.steps then
         Fmt.pr "# %d step(s) done; still serving (SIGINT/SIGTERM to stop)@."
           !n;
       while not (Atomic.get stop) do
         Unix.sleepf 0.05
       done
     with Obs.Health.Tripped msg ->
       (* Warn policy never raises; belt and braces for custom configs *)
       Fmt.epr "%s@." msg);
    Obs.Httpd.stop server;
    Obs.Tracer.disable ();
    Fmt.pr "# stopped cleanly@."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run
          $ spec_t ~steps:0
              ~steps_doc:"Stop stepping after N steps but keep serving until \
                          a signal arrives (0 = step until a signal arrives)."
          $ port $ cells_arg 256 $ health_stride $ refresh $ pace $ tissue_flag
          $ recorder_t)

(* -- validate-metrics ------------------------------------------------ *)

let validate_metrics_cmd =
  let doc =
    "Validate a Prometheus text exposition (as served at /metrics or \
     written by profile --format=prometheus): HELP/TYPE pairing, name \
     charsets, label escaping, sample values.  Exits 1 on the first \
     violation."
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let text = read_input_or_die file in
    match Obs.Export.validate_prometheus text with
    | Ok n -> Fmt.pr "%s: %d sample(s), exposition OK@." file n
    | Error e ->
        Fmt.epr "%s: %s@." file e;
        exit 1
  in
  Cmd.v (Cmd.info "validate-metrics" ~doc) Term.(const run $ file)

(* -- passes --------------------------------------------------------- *)

let passes_cmd =
  let doc = "Show per-pass op-count reductions on a model's kernel." in
  let run name width =
    let m = load_model name in
    let cfg =
      if width = 1 then Codegen.Config.baseline else Codegen.Config.mlir ~width
    in
    let g = Codegen.Kernel.generate ~optimize:false cfg m in
    let count () =
      List.fold_left (fun n f -> n + Ir.Func.op_count f) 0 g.modl.Ir.Func.m_funcs
    in
    Fmt.pr "%-14s %8s@." "pass" "ops";
    Fmt.pr "%-14s %8d@." "(none)" (count ());
    List.iter
      (fun (name, p) ->
        ignore (Passes.Pass.run_on_module p g.modl);
        Fmt.pr "%-14s %8d@." name (count ()))
      Passes.Pipeline.by_name;
    match Ir.Verifier.verify_module g.modl with
    | [] -> Fmt.pr "module verifies after pipeline@."
    | errs -> Fmt.epr "%s@." (Ir.Verifier.errors_to_string errs)
  in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ model_arg $ width_arg)

(* -- parse ---------------------------------------------------------- *)

let parse_cmd =
  let doc = "Parse and verify a saved IR module (emit -o output)." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Ir.Parser.parse_module_result (read_input_or_die file) with
    | Error e -> die ~file (error_diag "ir-parse" e)
    | Ok m -> (
        match Ir.Verifier.verify_module m with
        | [] ->
            Fmt.pr "%s: %d function(s), %d ops, verifies OK@." m.Ir.Func.m_name
              (List.length m.Ir.Func.m_funcs)
              (List.fold_left (fun n f -> n + Ir.Func.op_count f) 0
                 m.Ir.Func.m_funcs)
        | errs ->
            die ~file
              (error_diag "ir-verify" (Ir.Verifier.errors_to_string errs)))
  in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const run $ file)

(* -- cost ----------------------------------------------------------- *)

let cost_cmd =
  let doc =
    "Machine-model analysis of a model's kernel: per-cell cycles, flops, \
     bytes, roofline position and projected runtime."
  in
  let cells = Arg.(value & opt int 8192 & info [ "cells" ] ~docv:"N") in
  let steps = Arg.(value & opt int 100_000 & info [ "steps" ] ~docv:"N") in
  let run name codegen cells steps threads =
    let m = load_model name in
    let cfg = Spec.config codegen in
    let g = Codegen.Cache.generate cfg m in
    let k = Machine.Kcost.of_kernel g in
    Fmt.pr "kernel %s (%s)@." m.name (Codegen.Config.describe cfg);
    Fmt.pr "  per cell per step: %.1f cycles, %.1f flops, %.1f bytes@."
      k.Machine.Kcost.cycles_per_cell k.Machine.Kcost.flops_per_cell
      k.Machine.Kcost.bytes_per_cell;
    Fmt.pr "  loads/stores per cell: %.1f / %.1f@." k.Machine.Kcost.loads_per_cell
      k.Machine.Kcost.stores_per_cell;
    let r = Machine.Perfmodel.run_kernel g ~ncells:cells ~steps ~nthreads:threads in
    Fmt.pr "  projected on the paper's platform (%d cells, %d steps, %dT):@."
      cells steps threads;
    Fmt.pr "    time %.2f s  (compute %.2f s, memory %.2f s, sync %.2f s)@."
      r.Machine.Perfmodel.seconds r.Machine.Perfmodel.compute_seconds
      r.Machine.Perfmodel.memory_seconds r.Machine.Perfmodel.sync_seconds;
    Fmt.pr "    %.1f GFlop/s at %.3f Flops/Byte@." r.Machine.Perfmodel.gflops
      r.Machine.Perfmodel.oi
  in
  Cmd.v (Cmd.info "cost" ~doc)
    Term.(const run $ model_arg $ codegen_t $ cells $ steps $ threads_arg)

(* -- import-mmt ------------------------------------------------------ *)

let import_mmt_cmd =
  let doc =
    "Translate a Myokit MMT file to EasyML (the 'external translators' box \
     of the paper's Figure 1)."
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let vm =
    Arg.(value & opt string "membrane.V" & info [ "vm" ] ~docv:"COMP.VAR"
           ~doc:"Variable exported as the Vm external.")
  in
  let iion =
    Arg.(value & opt string "membrane.i_ion" & info [ "iion" ] ~docv:"COMP.VAR"
           ~doc:"Variable exported as the Iion external output.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Also analyze, generate and verify the translated model.")
  in
  let run file vm iion check =
    let t =
      match Easyml.Mmt.parse (read_input_or_die file) with
      | t -> t
      | exception Easyml.Mmt.Error { line; msg } ->
          die ~file
            (Easyml.Diag.make ~sev:Easyml.Diag.Error
               ~loc:(Easyml.Loc.make ~line ~col:1) ~code:"mmt-parse" msg)
    in
    let easyml = Easyml.Mmt.to_easyml ~vm ~iion t in
    print_string easyml;
    if check then begin
      let m =
        match Easyml.Sema.analyze_result ~name:t.Easyml.Mmt.name easyml with
        | Ok m -> m
        | Error msg -> die ~file (error_diag "load-failed" msg)
      in
      let g = Codegen.Kernel.generate (Codegen.Config.mlir ~width:8) m in
      Ir.Verifier.verify_module_exn g.modl;
      Fmt.epr "# %s: %d states, %d externals; vector kernel verifies OK@."
        m.name (List.length m.states) (List.length m.externals)
    end
  in
  Cmd.v (Cmd.info "import-mmt" ~doc)
    Term.(const run $ file $ vm $ iion $ check)

let main =
  let doc =
    "limpetMLIR (OCaml reproduction): EasyML ionic models to vectorized IR"
  in
  Cmd.group (Cmd.info "limpetmlir" ~doc)
    [
      list_cmd; inspect_cmd; check_cmd; emit_cmd; parse_cmd; run_cmd;
      replay_cmd; tissue_cmd; serve_cmd; profile_cmd; validate_metrics_cmd;
      passes_cmd; cost_cmd; import_mmt_cmd;
    ]

let () = exit (Cmd.eval main)
