(* Run-spec tests: the checkpoint metadata round trip (property-based,
   special float bit patterns included), runs resumed through a spec
   read back from a written checkpoint finishing at the uninterrupted
   digest, every dropped, garbled or out-of-range metadata key failing as
   a structured diagnostic, checkpoints written by earlier releases
   replaying to the digests those releases recorded, out-of-range flags
   and unusable input files failing as diagnostics, and the old [fused]
   engine name running batched. *)

module R = Obs.Recorder
module S = Spec

(* -- metadata round trip ------------------------------------------------ *)

(* bit patterns decimal printing would mangle: signed zero, subnormals,
   a NaN payload; plus uniform random patterns *)
let any_float : float QCheck.Gen.t =
  QCheck.Gen.(
    map Int64.float_of_bits
      (oneof
         [
           oneofl [ 0L; Int64.min_int; 1L; 0x000FFFFFFFFFFFFFL; 0x7FF8000000000001L ];
           int64;
         ]))

(* at least 0 and finite, signed zero and subnormals included *)
let non_negative_float : float QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; 0.001 ];
        map
          (fun b -> Int64.float_of_bits (Int64.logand b 0x7FEFFFFFFFFFFFFFL))
          int64;
      ])

(* strictly positive and finite, subnormals included *)
let positive_float : float QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun b -> Int64.float_of_bits (max 1L (Int64.logand b 0x7FEFFFFFFFFFFFFFL)))
      (oneof [ oneofl [ 1L; 0x000FFFFFFFFFFFFFL; Int64.bits_of_float 0.01 ]; int64 ]))

let spec_gen : S.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* model = oneofl [ "MitchellSchaeffer"; "fixtures/fast_upstroke.easyml" ] in
  let* width = oneofl [ 1; 2; 4; 8 ] in
  let* layout =
    oneofl Runtime.Layout.[ None; Some AoS; Some SoA; Some (AoSoA 4) ]
  in
  let* no_lut = bool in
  let* autovec = bool in
  let* spline = bool in
  let* engine = oneofl (List.map snd Sim.Driver.engines) in
  let* tile = int_range 0 64 in
  let* dt = positive_float in
  let* steps = int_range 0 1_000_000 in
  let* threads = int_range 1 8 in
  let* shape =
    oneof
      [
        map (fun n -> S.Cells n) (int_range 1 10_000);
        (let* nx = int_range 2 512 in
         let* ny = int_range 1 64 in
         let* dx = positive_float in
         let* sigma = non_negative_float in
         let* splitting = oneofl (List.map snd S.splittings) in
         let* block_check = any_float in
         let* stim_width = int_range 0 16 in
         let* protocol =
           oneof
             [
               return S.S1;
               map (fun s2_start -> S.S1s2 { s2_start }) any_float;
               (let* n_s1 = int_range 1 9 in
                let* interval = positive_float in
                let* s2_coupling = any_float in
                return (S.Restitution { n_s1; interval; s2_coupling }));
               return S.S1_paced;
             ]
         in
         return
           (S.Tissue
              { nx; ny; dx; sigma; splitting; block_check; stim_width; protocol }))
      ]
  in
  return
    {
      S.model;
      codegen = { S.width; layout; no_lut; autovec; spline };
      engine;
      tile;
      dt;
      steps;
      threads;
      shape;
    }

let meta_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"of_checkpoint inverts to_meta, bit for bit"
       (QCheck.make spec_gen) (fun s ->
         let ck =
           { R.ck_meta = S.to_meta s; ck_step = 0; ck_time = 0.0; ck_sections = [] }
         in
         match S.of_checkpoint ck with
         | Error d ->
             QCheck.Test.fail_reportf "%s" (Easyml.Diag.to_string ~file:"<meta>" d)
         | Ok s' ->
             (* [compare] equates 0.0 with -0.0; the metadata holds the bits *)
             compare s s' = 0 && S.to_meta s' = S.to_meta s))

(* -- capture, spec, create, restore, run -------------------------------- *)

let build (s : S.t) : S.sim =
  let m = Models.Registry.model (Models.Registry.find_exn s.S.model) in
  S.create s (Codegen.Cache.generate (S.config s.S.codegen) m)

let advance (s : S.t) (sim : S.sim) (n : int) : unit =
  for _ = 1 to n do
    S.step s sim
  done

let digest (sim : S.sim) : string = R.digest (S.capture sim)

let fail_diag (what : string) (d : Easyml.Diag.t) =
  Alcotest.failf "%s: %s" what (Easyml.Diag.to_string ~file:"<checkpoint>" d)

(* [s] checkpointed half-way, through a recorder armed with its spec and
   back from disk, as the CLI writes it *)
let checkpoint (s : S.t) : R.checkpoint =
  Test_recorder.with_temp_dir (fun dir ->
      let at = s.S.steps / 2 in
      let w = R.create_writer ~extra:(S.to_meta s) ~dir ~stride:at () in
      let sim = build s in
      advance s sim at;
      match R.read (R.record w (S.capture sim)) with
      | Ok ck -> ck
      | Error d -> fail_diag "re-read" d)

(* what [limpetmlir replay] does before stepping *)
let resume (ck : R.checkpoint) : (S.t * S.sim, Easyml.Diag.t) result =
  let ( let* ) = Result.bind in
  let* s = S.of_checkpoint ck in
  let sim = build s in
  let* () = S.restore sim ck in
  Ok (s, sim)

let finish (ck : R.checkpoint) : string =
  match resume ck with
  | Error d -> fail_diag "resume" d
  | Ok (s, sim) ->
      advance s sim (s.S.steps - ck.R.ck_step);
      digest sim

let cells ?(no_lut = false) (model : string) : S.t =
  {
    S.model;
    codegen = { S.width = 4; layout = None; no_lut; autovec = false; spline = false };
    engine = Sim.Driver.Batched;
    tile = 0;
    dt = 0.01;
    steps = 60;
    threads = 1;
    shape = S.Cells 6;
  }

let cable ?(splitting = Tissue.Monodomain.Godunov) ?(block_check = 0.0)
    (protocol : S.protocol) : S.t =
  {
    (cells "MitchellSchaeffer") with
    S.steps = 600;
    shape =
      S.Tissue
        {
          S.nx = 32;
          ny = 1;
          dx = 0.01;
          sigma = 0.001;
          splitting;
          block_check;
          stim_width = 5;
          protocol;
        };
  }

(* [serve --tissue]'s spec over 32 nodes *)
let serve_cable = cable ~block_check:100.0 S.S1_paced

let resumes_like_uninterrupted (name : string) (s : S.t) =
  Alcotest.test_case name `Quick (fun () ->
      let full = build s in
      advance s full s.S.steps;
      Alcotest.(check string) "resumed digest" (digest full) (finish (checkpoint s)))

let test_key_matrix () =
  List.iter
    (fun s ->
      let ck = checkpoint s in
      let expect what meta =
        match resume { ck with R.ck_meta = meta } with
        | Ok _ -> Alcotest.failf "%s: replay accepted it" what
        | Error d ->
            Alcotest.(check string) what "checkpoint-mismatch" d.Easyml.Diag.code
      in
      List.iter
        (fun (key, _) ->
          expect ("dropped " ^ key) (List.remove_assoc key ck.R.ck_meta);
          (* a well-formed but different model for the one free-form key *)
          let bad = if key = "model_ref" then "FentonKarma" else "zz" in
          expect ("garbled " ^ key)
            (List.map (fun (k, v) -> (k, if k = key then bad else v)) ck.R.ck_meta))
        ck.R.ck_meta;
      (* well-formed but out of range: the float bounds refuse ±inf *)
      expect "infinite dt_bits"
        (List.map
           (fun (k, v) ->
             (k, if k = "dt_bits" then R.hex_of_float Float.infinity else v))
           ck.R.ck_meta);
      (* a width outside Codegen.Config.widths is refused by the spec
         reader itself, before any kernel is built *)
      List.iter
        (fun w ->
          match S.of_checkpoint (R.set_meta ck "cli_width" w) with
          | Ok _ -> Alcotest.failf "cli_width %s: the spec reader accepted it" w
          | Error d ->
              Alcotest.(check string) ("cli_width " ^ w) "checkpoint-mismatch"
                d.Easyml.Diag.code)
        [ "0"; "3" ])
    [ cells "BeelerReuter"; cable S.S1 ]

(* test data, from the build tree or the repository root *)
let path p = if Sys.file_exists p then p else "test/" ^ p

(* Each fixture was written by an earlier release; its golden digest is
   that run's final state.
   - ms_cable32: `limpetmlir tissue MitchellSchaeffer --nx 32 --steps 600
     --engine batched --checkpoint-dir D --checkpoint-stride 300`, before
     the run spec existed.
   - ms_cells16_fused: `limpetmlir run MitchellSchaeffer --cells 16
     --steps 400 --checkpoint-dir D --checkpoint-stride 200` at default
     flags while the default engine was still called fused, so it
     records `engine fused`.
   Both record `specialized true`, which releases that partially
   evaluated kernels per run wrote; any other value of it replays to
   the same digest. *)
let test_release_fixture () =
  List.iter
    (fun name ->
      match R.read (path ("fixtures/" ^ name ^ ".ckpt")) with
      | Error d -> fail_diag name d
      | Ok ck ->
          let golden =
            String.trim (Test_tissue.read_file ("golden/" ^ name ^ "_digest.txt"))
          in
          List.iter
            (fun v ->
              Alcotest.(check string)
                (Printf.sprintf "%s, specialized %s: replayed digest" name v)
                golden
                (finish (R.set_meta ck "specialized" v)))
            [ "true"; "false"; "zz" ])
    [ "ms_cable32"; "ms_cells16_fused" ]

(* -- out-of-range flags ---------------------------------------------------- *)

(* Every value the create functions (or the recorder and health monitor)
   would refuse exits 1 with a diagnostic naming the flag, never 125 with
   an uncaught exception; [--ny 0] is refused up front rather than
   written into checkpoints that replay then rejects.  Infinite float
   flags are out of range like NaN, and an input file that cannot be
   read, parsed or verified is a diagnostic too. *)
let test_bad_flags () =
  let bench = Filename.concat (Filename.dirname Test_native.cli) "bench.exe" in
  Test_recorder.with_temp_dir (fun dir ->
      let ck = Filename.concat dir "ck" in
      let cli flag args = (Test_native.cli, args, flag ^ " must be") in
      let diag code args = (Test_native.cli, args, "[" ^ code ^ "]") in
      let ms = [ "MitchellSchaeffer"; "--steps"; "10" ] in
      let file name text =
        let p = Filename.concat dir name in
        Out_channel.with_open_bin p (fun oc -> output_string oc text);
        p
      in
      let garbage_ir = file "garbage.mlir" "this is not IR\n" in
      let ill_typed_ir =
        file "ill_typed.mlir"
          "module @m {\n  func.func @f(%0 : f64, %1 : i64) -> () {\n    \
           %2 = arith.addf %0, %1 : (f64, i64) -> f64\n    func.return\n  }\n}\n"
      in
      let bad_mmt = file "bad.mmt" "[[model]]\nname: x\n[membrane]\nV = 1 +\n" in
      let undefined_mmt =
        file "undefined.mmt"
          "[[model]]\nname: x\nmembrane.V = -80\n[membrane]\ndot(V) = -i_ion\n\
           i_ion = nowhere * 2\n"
      in
      List.iter
        (fun (exe, args, want) ->
          let code, _, err = Test_native.start_exe exe ~env:[] args () in
          let ctx = String.concat " " args in
          Alcotest.(check int) (ctx ^ ": exit") 1 code;
          if not (Helpers.contains err want) then
            Alcotest.failf "%s: no diagnostic %S in\n%s" ctx want err)
        [
          cli "--cells" ("run" :: "--cells" :: "0" :: ms);
          cli "--threads" ("run" :: "--threads" :: "0" :: ms);
          cli "--threads" ("tissue" :: "--threads" :: "0" :: ms);
          cli "--threads" ("profile" :: "--threads" :: "0" :: ms);
          cli "--nx" ("tissue" :: "--nx" :: "1" :: ms);
          cli "--dx" ("tissue" :: "--dx" :: "0" :: ms);
          cli "--sigma"
            ("tissue" :: "--sigma=-1" :: "--checkpoint-dir" :: ck :: ms);
          cli "--sigma" ("tissue" :: "--sigma" :: "nan" :: ms);
          cli "--sigma" ("tissue" :: "--sigma" :: "nan" :: "--ny" :: "4" :: ms);
          cli "--ny" ("tissue" :: "--ny" :: "0" :: "--checkpoint-dir" :: ck :: ms);
          cli "--checkpoint-stride"
            ("run" :: "--checkpoint-dir" :: ck :: "--checkpoint-stride" :: "0" :: ms);
          cli "--checkpoint-keep"
            ("run" :: "--checkpoint-dir" :: ck :: "--checkpoint-keep" :: "0" :: ms);
          cli "--health-stride"
            ("run" :: "--health" :: "--health-stride" :: "0" :: ms);
          cli "--health-stride"
            ("serve" :: "--port" :: "0" :: "--health-stride" :: "0" :: ms);
          cli "--refresh" ("serve" :: "--port" :: "0" :: "--refresh" :: "0" :: ms);
          cli "--threads"
            [ "replay"; path "fixtures/ms_cells16_fused.ckpt"; "--threads"; "0" ];
          diag "no-models" [ "check" ];
          cli "--width" [ "emit"; "MitchellSchaeffer"; "-w"; "0" ];
          cli "--width" [ "passes"; "MitchellSchaeffer"; "-w"; "0" ];
          cli "--width" ("cost" :: "-w" :: "0" :: ms);
          cli "--width" ("run" :: "-w" :: "3" :: ms);
          cli "--width" ("tissue" :: "-w" :: "3" :: ms);
          cli "--width" ("profile" :: "-w" :: "3" :: ms);
          (bench, [ "MitchellSchaeffer"; "-w"; "0" ], "--width must be");
          (bench, [ "MitchellSchaeffer"; "-w"; "3" ], "--width must be");
          (bench, [ "NoSuchModel" ], "[unknown-model]");
          (bench, [ "MitchellSchaeffer"; "--cells"; "0" ], "--cells must be");
          (bench, [ "MitchellSchaeffer"; "--threads"; "0" ],
           "--threads must be");
          (bench, [ "MitchellSchaeffer"; "--dt"; "0" ], "--dt must be");
          cli "--dt" ("run" :: "--dt" :: "inf" :: "--checkpoint-dir" :: ck :: ms);
          cli "--sigma" ("tissue" :: "--sigma" :: "inf" :: ms);
          cli "--dx" ("tissue" :: "--dx" :: "inf" :: ms);
          (bench, [ "MitchellSchaeffer"; "--dt"; "inf" ], "--dt must be");
          diag "ir-parse" [ "parse"; garbage_ir ];
          diag "ir-verify" [ "parse"; ill_typed_ir ];
          diag "mmt-parse" [ "import-mmt"; bad_mmt ];
          diag "load-failed" [ "import-mmt"; "--check"; undefined_mmt ];
          diag "load-failed" [ "run"; dir; "--checkpoint-dir"; ck ];
          diag "load-failed" [ "validate-metrics"; dir ];
        ];
      Alcotest.(check bool) "no checkpoint written" false (Sys.file_exists ck))

(* [fused], the old name of [batched], and the default engine both run
   batched: same engine in the tissue header, same final digest *)
let test_fused_runs_batched () =
  List.iter
    (fun base ->
      let run extra =
        let args = base @ extra in
        let ((_, out, _) as r) = Test_native.run_cli ~env:[] args in
        let digest = Test_native.final_digest ~ctx:(String.concat " " args) r in
        if List.hd base = "tissue" && not (Helpers.contains out "engine=batched")
        then
          Alcotest.failf "%s: not on the batched engine:\n%s"
            (String.concat " " args) out;
        digest
      in
      let want = run [ "--engine"; "batched" ] in
      Alcotest.(check string) "--engine fused" want (run [ "--engine"; "fused" ]);
      Alcotest.(check string) "default engine" want (run []))
    [
      [ "run"; "MitchellSchaeffer"; "--cells"; "16"; "--steps"; "200";
        "--trace-every"; "0"; "--final-digest" ];
      [ "tissue"; "MitchellSchaeffer"; "--nx"; "32"; "--steps"; "300"; "--final-digest" ];
    ]

let suite =
  [
    meta_roundtrip;
    resumes_like_uninterrupted "cell run" (cells "BeelerReuter");
    resumes_like_uninterrupted "cell run without lookup tables"
      (cells ~no_lut:true "BeelerReuter");
    resumes_like_uninterrupted "cable s1" (cable S.S1);
    resumes_like_uninterrupted "cable s1, strang splitting"
      (cable ~splitting:Tissue.Monodomain.Strang S.S1);
    resumes_like_uninterrupted "cable s1s2" (cable (S.S1s2 { s2_start = 4.0 }));
    resumes_like_uninterrupted "cable restitution"
      (cable (S.Restitution { n_s1 = 2; interval = 2.0; s2_coupling = 1.5 }));
    resumes_like_uninterrupted "serve --tissue cable" serve_cable;
    Alcotest.test_case "dropped or garbled keys are checkpoint-mismatch" `Quick
      test_key_matrix;
    Alcotest.test_case "checkpoint from an earlier release replays" `Quick
      test_release_fixture;
    Alcotest.test_case "out-of-range flags are diagnostics, exit 1" `Quick
      test_bad_flags;
    Alcotest.test_case "--engine fused and the default run batched" `Quick
      test_fused_runs_batched;
  ]
