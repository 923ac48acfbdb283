(* Flight-recorder tests: checkpoint serialization round-trips exact bit
   patterns (property-based, including -0.0 / NaN payloads / subnormals),
   driver capture/restore across the three layouts, the
   interrupted-vs-uninterrupted bitwise differential over the whole model
   catalogue (batched; native within its 2-ULP bound), corrupt
   and truncated files failing with structured diagnostics, writer
   rotation/statistics, and the tissue round trip (activation maps and
   block latches included). *)

module R = Obs.Recorder
module D = Sim.Driver
module C = Codegen.Config

(* -- scratch directories --------------------------------------------- *)

let mktemp_dir (prefix : string) : string =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rec rm_rf (path : string) : unit =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_temp_dir (f : string -> 'a) : 'a =
  let dir = mktemp_dir "limpet-ckpt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* -- serialization round trip (property-based) ------------------------ *)

(* floats by bit pattern, weighted toward the values plain-text float
   printing would mangle: signed zeros, infinities, NaN payloads,
   subnormals, and uniform random bit patterns *)
let float_bits_gen : float QCheck.Gen.t =
  QCheck.Gen.(
    map Int64.float_of_bits
      (oneof
         [
           oneofl
             [
               0L;
               Int64.min_int (* -0.0 *);
               0x7FF0000000000000L (* +inf *);
               0xFFF0000000000000L (* -inf *);
               0x7FF8000000000001L (* NaN with payload *);
               0xFFFFFFFFFFFFFFFFL (* negative NaN, full payload *);
               1L (* smallest subnormal *);
               0x000FFFFFFFFFFFFFL (* largest subnormal *);
               0x3FF0000000000001L (* 1.0 + 1 ULP *);
             ];
           int64;
         ]))

let token_gen : string QCheck.Gen.t =
  QCheck.Gen.(map (Printf.sprintf "k%d") (int_range 0 99))

(* meta values may contain spaces but never newlines *)
let value_gen : string QCheck.Gen.t =
  QCheck.Gen.(
    map
      (String.map (fun c -> if c = '\n' || c = '\r' then '_' else c))
      (string_size ~gen:printable (int_range 0 12)))

let checkpoint_gen : R.checkpoint QCheck.Gen.t =
  QCheck.Gen.(
    let* nmeta = int_range 0 4 in
    let* meta = list_repeat nmeta (pair token_gen value_gen) in
    let* step = int_range 0 1_000_000 in
    let* time = float_bits_gen in
    let* nsec = int_range 0 4 in
    let* sections =
      flatten_l
        (List.init nsec (fun i ->
             let* len = int_range 0 17 in
             let* data = list_repeat len float_bits_gen in
             return
               {
                 R.sec_name = Printf.sprintf "sec%d" i;
                 sec_data = Float.Array.of_list data;
               }))
    in
    return
      {
        R.ck_meta = meta;
        ck_step = step;
        ck_time = time;
        ck_sections = sections;
      })

let same_bits (a : float) (b : float) : bool =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let checkpoint_equal (a : R.checkpoint) (b : R.checkpoint) : bool =
  a.R.ck_step = b.R.ck_step
  && same_bits a.R.ck_time b.R.ck_time
  && a.R.ck_meta = b.R.ck_meta
  && List.length a.R.ck_sections = List.length b.R.ck_sections
  && List.for_all2
       (fun (x : R.section) (y : R.section) ->
         x.R.sec_name = y.R.sec_name
         && Float.Array.length x.R.sec_data = Float.Array.length y.R.sec_data
         &&
         let ok = ref true in
         Float.Array.iteri
           (fun i v ->
             if not (same_bits v (Float.Array.get y.R.sec_data i)) then
               ok := false)
           x.R.sec_data;
         !ok)
       a.R.ck_sections b.R.ck_sections

let serialization_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"serialization round-trips exact bit patterns"
       (QCheck.make checkpoint_gen) (fun ck ->
         let s = R.to_string ck in
         match R.of_string s with
         | Error d ->
             QCheck.Test.fail_reportf "parse failed: %s"
               (Easyml.Diag.to_string ~file:"<mem>" d)
         | Ok ck' ->
             checkpoint_equal ck ck' && String.equal (R.digest ck) (R.digest ck')))

(* every float is written as [%016Lx] of its bit pattern *)
let hex_format =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"hex_of_float is %016Lx of the bits"
       (QCheck.make float_bits_gen) (fun v ->
         String.equal (R.hex_of_float v)
           (Printf.sprintf "%016Lx" (Int64.bits_of_float v))))

(* -- structured errors on corrupt input ------------------------------- *)

let sample_checkpoint () : R.checkpoint =
  {
    R.ck_meta = [ ("kind", "test"); ("note", "two words") ];
    ck_step = 42;
    ck_time = 0.42;
    ck_sections =
      [
        {
          R.sec_name = "sv";
          sec_data = Float.Array.of_list [ 1.0; -0.0; Float.nan; 1e-310 ];
        };
      ];
  }

let write_text (path : string) (text : string) : unit =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [text] must fail to parse, and [R.read] of a file holding it must
   fail with the same diagnostic, word for word *)
let expect_error (label : string) (text : string) : unit =
  let from_file =
    with_temp_dir (fun dir ->
        let path = Filename.concat dir "corrupt.ckpt" in
        write_text path text;
        R.read path)
  in
  match (R.of_string text, from_file) with
  | Ok _, _ -> Alcotest.failf "%s: corrupt input parsed as Ok" label
  | _, Ok _ -> Alcotest.failf "%s: corrupt file read as Ok" label
  | Error d, Error d' ->
      if
        not
          (List.mem d.Easyml.Diag.code
             [ "checkpoint-format"; "checkpoint-digest"; "checkpoint-io" ])
      then
        Alcotest.failf "%s: unexpected diagnostic code %s" label
          d.Easyml.Diag.code;
      Alcotest.(check string) (label ^ ": read's code") d.Easyml.Diag.code
        d'.Easyml.Diag.code;
      Alcotest.(check string)
        (label ^ ": read's message") d.Easyml.Diag.message
        d'.Easyml.Diag.message

let test_corrupt_inputs () =
  let good = R.to_string (sample_checkpoint ()) in
  (* sanity: the untouched serialization parses *)
  (match R.of_string good with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "pristine input rejected: %s"
        (Easyml.Diag.to_string ~file:"<mem>" d));
  expect_error "empty" "";
  expect_error "garbage" "not a checkpoint at all\n";
  expect_error "bad magic" ("limpetmlir-somethingelse v1\n" ^ good);
  (let lines = String.split_on_char '\n' good in
   match lines with
   | _ :: rest ->
       expect_error "future version"
         (String.concat "\n" (("limpetmlir-checkpoint v99") :: rest))
   | [] -> Alcotest.fail "empty serialization");
  (* truncation at every line boundary must fail structurally *)
  let lines = String.split_on_char '\n' good in
  let n = List.length lines in
  for keep = 1 to n - 2 do
    let truncated =
      String.concat "\n" (List.filteri (fun i _ -> i < keep) lines) ^ "\n"
    in
    expect_error (Printf.sprintf "truncated after %d line(s)" keep) truncated
  done;
  (* single flipped hex digit inside a section body: the content digest
     must catch it.  The sample's first section datum is 1.0 =
     3ff0000000000000; flip its leading nibble. *)
  (match String.index_opt good ' ' with
  | None -> Alcotest.fail "no tokens in serialization"
  | Some _ ->
      let target = "3ff0000000000000" in
      let rec find i =
        if i + String.length target > String.length good then None
        else if String.sub good i (String.length target) = target then Some i
        else find (i + 1)
      in
      (match find 0 with
      | None -> Alcotest.fail "sample serialization lacks the 1.0 pattern"
      | Some i ->
          let flipped = Bytes.of_string good in
          Bytes.set flipped i '4';
          expect_error "bit flip" (Bytes.to_string flipped)));
  (* file-level: a missing path is a checkpoint-io diagnostic *)
  match R.read "/nonexistent/limpet-checkpoint.ckpt" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error d ->
      Alcotest.(check string) "io code" "checkpoint-io" d.Easyml.Diag.code

(* -- driver capture/restore across layouts ---------------------------- *)

let stim = Sim.Stim.default

let config_of_layout (name : string) : C.t =
  match Runtime.Layout.of_string name with
  | Some l -> { (C.mlir ~width:4) with C.layout = l }
  | None -> Alcotest.failf "bad layout %s" name

let test_layout_roundtrip () =
  let m = Models.Registry.model (Option.get (Models.Registry.find "BeelerReuter")) in
  List.iter
    (fun layout ->
      let cfg = config_of_layout layout in
      let g = Codegen.Cache.generate cfg m in
      let mk () = D.create g ~ncells:6 ~dt:0.01 in
      (* uninterrupted control *)
      let d0 = mk () in
      ignore (D.run ~stim d0 ~steps:60);
      let want = R.digest (D.capture d0) in
      (* interrupted: run, capture through a file, restore into a fresh
         driver, finish *)
      let d1 = mk () in
      ignore (D.run ~stim d1 ~steps:23);
      let ck = D.capture d1 in
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "ck" in
          let bytes = R.write ~path ck in
          let text = read_file path in
          Alcotest.(check int) (layout ^ ": write returns the byte count")
            (String.length text) bytes;
          Alcotest.(check bool) (layout ^ ": file bytes == to_string") true
            (String.equal text (R.to_string ck));
          match R.read path with
          | Error e ->
              Alcotest.failf "%s: re-read failed: %s" layout
                (Easyml.Diag.to_string ~file:path e)
          | Ok ck' -> (
              let d2 = mk () in
              match D.restore d2 ck' with
              | Error e ->
                  Alcotest.failf "%s: restore failed: %s" layout
                    (Easyml.Diag.to_string ~file:path e)
              | Ok () ->
                  ignore (D.run ~stim d2 ~steps:37);
                  Alcotest.(check string)
                    (layout ^ ": resumed digest matches uninterrupted")
                    want
                    (R.digest (D.capture d2)))))
    [ "aos"; "soa"; "aosoa4" ]

let test_restore_rejects_mismatch () =
  let m = Models.Registry.model (Option.get (Models.Registry.find "BeelerReuter")) in
  let g = Codegen.Cache.generate (C.mlir ~width:4) m in
  let d = D.create g ~ncells:6 ~dt:0.01 in
  let ck = D.capture d in
  (* wrong population *)
  let other = D.create g ~ncells:12 ~dt:0.01 in
  (match D.restore other ck with
  | Ok () -> Alcotest.fail "restore into a different population succeeded"
  | Error e ->
      Alcotest.(check string) "mismatch code" "checkpoint-mismatch"
        e.Easyml.Diag.code);
  (* wrong dt (different bit pattern) *)
  let other = D.create g ~ncells:6 ~dt:0.02 in
  (match D.restore other ck with
  | Ok () -> Alcotest.fail "restore under a different dt succeeded"
  | Error e ->
      Alcotest.(check string) "mismatch code" "checkpoint-mismatch"
        e.Easyml.Diag.code);
  (* same model and population, lookup tables off: the config differs *)
  let g_nolut = Codegen.Cache.generate { (C.mlir ~width:4) with C.use_lut = false } m in
  let other = D.create g_nolut ~ncells:6 ~dt:0.01 in
  (match D.restore other ck with
  | Ok () -> Alcotest.fail "restore under a different config succeeded"
  | Error e ->
      Alcotest.(check string) "mismatch code" "checkpoint-mismatch"
        e.Easyml.Diag.code);
  (* wrong model *)
  let m2 = Models.Registry.model (Option.get (Models.Registry.find "FentonKarma")) in
  let g2 = Codegen.Cache.generate (C.mlir ~width:4) m2 in
  let other = D.create g2 ~ncells:6 ~dt:0.01 in
  match D.restore other ck with
  | Ok () -> Alcotest.fail "restore into a different model succeeded"
  | Error e ->
      Alcotest.(check string) "mismatch code" "checkpoint-mismatch"
        e.Easyml.Diag.code

(* -- interrupted vs uninterrupted over the catalogue ------------------- *)

let test_catalogue_bitwise_identical () =
  (* resuming from a checkpoint must not change a single result bit, on
     any model, for both optimized engines *)
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let m = Models.Registry.model e in
      let g = Codegen.Cache.generate (C.mlir ~width:4) m in
      List.iter
        (fun (ename, engine) ->
          let mk () = D.create ~engine g ~ncells:4 ~dt:0.01 in
          let d0 = mk () in
          ignore (D.run ~stim d0 ~steps:60);
          let want = R.digest (D.capture d0) in
          let d1 = mk () in
          ignore (D.run ~stim d1 ~steps:23);
          let ck = D.capture d1 in
          let d2 = mk () in
          (match D.restore d2 ck with
          | Error err ->
              Alcotest.failf "%s/%s: restore failed: %s" e.name ename
                (Easyml.Diag.to_string ~file:"<mem>" err)
          | Ok () -> ());
          ignore (D.run ~stim d2 ~steps:37);
          let got = R.digest (D.capture d2) in
          if not (String.equal want got) then
            Alcotest.failf "%s/%s: resumed digest %s, uninterrupted %s" e.name
              ename got want)
        [ ("batched", D.Batched) ])
    Models.Registry.all

(* native: interrupted-vs-uninterrupted is bitwise against itself (same
   compiled artifact both sides) and within the kernels' 2-ULP bound
   against the batched control *)
let native_ulp_bound = 2L

let ulp_diff (a : float) (b : float) : int64 =
  if Float.is_nan a && Float.is_nan b then 0L
  else if Float.is_nan a || Float.is_nan b then Int64.max_int
  else
    let line x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits
    in
    Int64.abs (Int64.sub (line a) (line b))

let test_native_replay () =
  if not (Exec.Native.available ()) then ()
  else
    List.iter
      (fun name ->
        let m = Models.Registry.model (Option.get (Models.Registry.find name)) in
        let g = Codegen.Cache.generate (C.mlir ~width:4) m in
        let mk engine = D.create ~engine g ~ncells:4 ~dt:0.01 in
        let d0 = mk D.Native in
        ignore (D.run ~stim d0 ~steps:60);
        let want = R.digest (D.capture d0) in
        let d1 = mk D.Native in
        ignore (D.run ~stim d1 ~steps:23);
        let ck = D.capture d1 in
        let d2 = mk D.Native in
        (match D.restore d2 ck with
        | Error err ->
            Alcotest.failf "%s/native: restore failed: %s" name
              (Easyml.Diag.to_string ~file:"<mem>" err)
        | Ok () -> ());
        ignore (D.run ~stim d2 ~steps:37);
        Alcotest.(check string)
          (name ^ "/native: resumed digest bitwise vs native control")
          want
          (R.digest (D.capture d2));
        (* and the resumed native trajectory stays inside the native
           engine's documented ULP envelope of the batched control *)
        let batched = mk D.Batched in
        ignore (D.run ~stim batched ~steps:60);
        List.iter2
          (fun (var, a) (_, b) ->
            let d = ulp_diff a b in
            if Int64.compare d native_ulp_bound > 0 then
              Alcotest.failf "%s/native: %s diverged by %Ld ULP" name var d)
          (D.snapshot batched 1) (D.snapshot d2 1))
      [ "BeelerReuter"; "FentonKarma" ]

(* -- periodic writer: stride, rotation, verification, stats ------------ *)

let test_writer_rotation_and_stats () =
  with_temp_dir (fun dir ->
      let w =
        R.create_writer ~keep:2 ~extra:[ ("run", "rotation-test") ] ~dir
          ~stride:10 ()
      in
      Alcotest.(check bool) "step 0 not due" false (R.due w ~step:0);
      Alcotest.(check bool) "step 10 due" true (R.due w ~step:10);
      Alcotest.(check bool) "step 15 not due" false (R.due w ~step:15);
      Alcotest.(check (option string)) "no file yet" None (R.last w);
      let record step =
        ignore (R.record w { (sample_checkpoint ()) with R.ck_step = step })
      in
      List.iter record [ 10; 20; 30; 40 ];
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "rotation keeps the newest two"
        [ "checkpoint-000000000030.ckpt"; "checkpoint-000000000040.ckpt" ]
        files;
      (match R.last w with
      | Some p ->
          Alcotest.(check string) "last points at the newest"
            "checkpoint-000000000040.ckpt" (Filename.basename p);
          (* the writer's extra metadata landed in the file *)
          (match R.read p with
          | Ok ck ->
              Alcotest.(check (option string))
                "extra meta merged" (Some "rotation-test") (R.meta ck "run")
          | Error e ->
              Alcotest.failf "re-read failed: %s"
                (Easyml.Diag.to_string ~file:p e))
      | None -> Alcotest.fail "last = None after four writes");
      let s = R.stats w in
      Alcotest.(check int) "writes counted" 4 s.Obs.Export.cp_writes;
      Alcotest.(check int) "last step tracked" 40 s.Obs.Export.cp_last_step;
      Alcotest.(check int) "no verify failures" 0
        s.Obs.Export.cp_verify_failures;
      Alcotest.(check bool) "bytes accumulated" true
        (s.Obs.Export.cp_bytes > 0))

(* -- crash dump bundle ------------------------------------------------- *)

let test_crash_dump_bundle () =
  with_temp_dir (fun dir ->
      let w = R.create_writer ~dir ~stride:1 () in
      let last = R.record w (sample_checkpoint ()) in
      Obs.Tracer.reset ();
      Obs.Tracer.enable ();
      Obs.Tracer.with_span "doomed" (fun () -> ());
      let events = Obs.Tracer.tail () in
      Obs.Tracer.disable ();
      let bundle =
        R.crash_dump ~dir ~last_checkpoint:last ~events
          ~health:"UNHEALTHY: test\n"
          ~report:
            (Obs.Json.Obj
               [ ("reason", Obs.Json.Str "test"); ("step", Obs.Json.Num 7.0) ])
          ()
      in
      List.iter
        (fun f ->
          if not (Sys.file_exists (Filename.concat bundle f)) then
            Alcotest.failf "bundle lacks %s" f)
        [
          "report.json"; "trace_tail.json"; "health.txt";
          Filename.basename last;
        ];
      (* the report is valid JSON and carries the structured fields *)
      let ic = open_in (Filename.concat bundle "report.json") in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse text with
      | Error e -> Alcotest.failf "report.json unparseable: %s" e
      | Ok j ->
          Alcotest.(check (option string))
            "reason survives" (Some "test")
            (Option.bind (Obs.Json.member "reason" j) Obs.Json.to_str))

(* -- tissue round trip -------------------------------------------------- *)

let test_tissue_roundtrip () =
  let m = Models.Registry.model (Option.get (Models.Registry.find "FentonKarma")) in
  let g = Codegen.Cache.generate (C.mlir ~width:4) m in
  let mk geom =
    Tissue.Monodomain.create g ~geom ~dt:0.01
      ~protocol:(Tissue.Protocol.s1 ~width:4 geom)
  in
  (* an uninterrupted run against one captured at step 400, written,
     re-read and restored into a fresh simulation: on the sheet the
     fresh simulation's CG vectors have solved nothing yet *)
  let roundtrip geom =
    let label = Tissue.Geometry.describe geom in
    let s0 = mk geom in
    ignore (Tissue.Monodomain.run s0 ~steps:900);
    let want = R.digest (Tissue.Monodomain.capture s0) in
    let s1 = mk geom in
    ignore (Tissue.Monodomain.run s1 ~steps:400);
    let ck = Tissue.Monodomain.capture s1 in
    Alcotest.(check (option string))
      "tissue kind" (Some "tissue") (R.meta ck "kind");
    let ck' =
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "tissue.ckpt" in
          ignore (R.write ~path ck);
          match R.read path with
          | Ok ck' -> ck'
          | Error e ->
              Alcotest.failf "%s: re-read failed: %s" label
                (Easyml.Diag.to_string ~file:path e))
    in
    let s2 = mk geom in
    (match Tissue.Monodomain.restore s2 ck' with
    | Error e ->
        Alcotest.failf "%s: tissue restore failed: %s" label
          (Easyml.Diag.to_string ~file:"<mem>" e)
    | Ok () -> ());
    ignore (Tissue.Monodomain.run s2 ~steps:500);
    Alcotest.(check string) (label ^ ": resumed digest matches") want
      (R.digest (Tissue.Monodomain.capture s2));
    (* the activation detector resumed exactly: identical maps *)
    Alcotest.(check string) (label ^ ": activation map identical")
      (Tissue.Activation.to_csv (Tissue.Monodomain.activation s0) geom)
      (Tissue.Activation.to_csv (Tissue.Monodomain.activation s2) geom);
    ck
  in
  let ck = roundtrip (Tissue.Geometry.cable ~n:32 ~dx:0.01) in
  ignore (roundtrip (Tissue.Geometry.sheet ~nx:16 ~ny:16 ~dx:0.01));
  (* a restored checkpoint refuses a different geometry *)
  match Tissue.Monodomain.restore (mk (Tissue.Geometry.cable ~n:48 ~dx:0.01)) ck with
  | Ok () -> Alcotest.fail "restore into a different geometry succeeded"
  | Error e ->
      Alcotest.(check string) "geometry mismatch code" "checkpoint-mismatch"
        e.Easyml.Diag.code

let suite =
  [
    serialization_roundtrip;
    hex_format;
    Alcotest.test_case "corrupt inputs fail structurally" `Quick
      test_corrupt_inputs;
    Alcotest.test_case "capture/restore across the three layouts" `Quick
      test_layout_roundtrip;
    Alcotest.test_case "restore rejects mismatched drivers" `Quick
      test_restore_rejects_mismatch;
    Alcotest.test_case "interrupted runs bitwise identical (43 models)" `Quick
      test_catalogue_bitwise_identical;
    Alcotest.test_case "native replay (bitwise vs native, ULP vs batched)" `Quick
      test_native_replay;
    Alcotest.test_case "writer stride, rotation and stats" `Quick
      test_writer_rotation_and_stats;
    Alcotest.test_case "crash dump bundle" `Quick test_crash_dump_bundle;
    Alcotest.test_case "tissue round trip" `Quick test_tissue_roundtrip;
  ]
