(* Run-spec tests: the checkpoint metadata round trip (property-based,
   special float bit patterns included), runs resumed through a spec
   read back from a written checkpoint finishing at the uninterrupted
   digest, every dropped or garbled metadata key failing as a structured
   diagnostic, and a checkpoint written by an earlier release replaying
   to the digest that release recorded. *)

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
  let* specialize = bool in
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
         let* sigma = any_float in
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
      specialize;
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
    specialize = true;
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
        ck.R.ck_meta)
    [ cells "BeelerReuter"; cable S.S1 ]

(* written by `limpetmlir tissue MitchellSchaeffer --nx 32 --steps 600
   --engine batched --checkpoint-dir D --checkpoint-stride 300` before the
   run spec existed; the golden digest is that run's final state *)
let test_release_fixture () =
  let path p = if Sys.file_exists p then p else "test/" ^ p in
  match R.read (path "fixtures/ms_cable32.ckpt") with
  | Error d -> fail_diag "fixture" d
  | Ok ck ->
      Alcotest.(check string) "replayed digest"
        (String.trim (Test_tissue.read_file "golden/ms_cable32_digest.txt"))
        (finish ck)

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
  ]
