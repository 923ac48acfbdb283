(* Tests of the end-to-end benchmark: compare verdicts and the answer
   oracle on synthetic inputs, then the smoke-scale accounting and
   CLI-parity checks on real invocations. *)

open E2e

let main_exe = Sys.getenv "E2E_MAIN"
let cli = Sys.getenv "LIMPETMLIR"
let work = "_work"

let scratch (name : string) : string =
  Bench.mkdir_p work;
  Filename.concat work name

(* -- compare ---------------------------------------------------------- *)

let def name = List.find (fun d -> d.Metrics.name = name) Metrics.end_to_end

let verdict =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Compare.verdict_name v))
    ( = )

let base = [ 10.0; 10.1; 9.9; 10.05; 9.95 ]
let scale k = List.map (fun x -> x *. k) base

let test_verdicts () =
  let check msg expect d a b =
    Alcotest.check verdict msg expect (Compare.verdict (def d) ~a ~b)
  in
  let past_bound d = 1.5 *. (def d).Metrics.bound in
  check "same samples" Compare.No_worse "wall_s" base base;
  check "slower, within the bound" Compare.No_worse "wall_s" base
    (scale (1.0 +. (0.5 *. past_bound "wall_s")));
  check "slower, past the bound" Compare.Regressed "wall_s" base
    (scale (1.0 +. past_bound "wall_s"));
  check "faster" Compare.Improved "wall_s" base (scale (1.0 -. past_bound "wall_s"));
  check "base spread wider than the bound" Compare.Unresolved "wall_s"
    [ 5.0; 15.0; 7.0; 13.0; 10.0 ] base;
  check "wide spread, but every B beats every A" Compare.Improved "wall_s"
    [ 10.0; 12.0; 14.0; 16.0; 18.0 ] [ 5.0; 5.5; 6.0; 6.5; 7.0 ];
  check "throughput down" Compare.Regressed "cell_steps_per_s" base
    (scale (1.0 -. past_bound "cell_steps_per_s"));
  check "throughput up" Compare.Improved "cell_steps_per_s" base
    (scale (1.0 +. past_bound "cell_steps_per_s"));
  check "+10 ms set-up is under the floor" Compare.No_worse "setup_s"
    [ 0.030; 0.031; 0.029 ] [ 0.040; 0.041; 0.039 ];
  check "any failure regresses" Compare.Regressed "fail_frac" [ 0.0; 0.0; 0.0 ]
    [ 0.0; 0.125; 0.0 ];
  check "no failures either side" Compare.No_worse "fail_frac" [ 0.0; 0.0 ] [ 0.0; 0.0 ]

let result_file (path : string) (wall : float list) : unit =
  let open Obs.Json in
  let metric name xs =
    Obj [ ("name", Str name); ("samples", Arr (List.map (fun x -> Num x) xs)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (to_string
           (Obj
              [
                ( "workloads",
                  Arr
                    [
                      Obj
                        [
                          ("name", Str "w");
                          ("metrics", Arr [ metric "wall_s" wall; metric "fail_frac" [ 0.0 ] ]);
                        ];
                    ] );
              ])))

let test_compare_files () =
  let a = scratch "a.json" and b = scratch "b.json" in
  result_file a base;
  result_file b (scale 2.0);
  let rows = Compare.rows ~a:(Compare.load a) ~b:(Compare.load b) in
  Alcotest.(check (list string))
    "one row per metric both sides measured" [ "wall_s"; "fail_frac" ]
    (List.map (fun r -> r.Compare.metric.Metrics.name) rows);
  Alcotest.check verdict "wall regressed" Compare.Regressed (List.hd rows).Compare.verdict;
  Sys.remove a;
  Sys.remove b

(* -- oracle ----------------------------------------------------------- *)

let ulps (x : float) (k : int) : float =
  Int64.float_of_bits (Int64.add (Int64.bits_of_float x) (Int64.of_int k))

let test_ulp_distance () =
  Alcotest.(check int64) "zeros" 0L (Oracle.ulp_distance 0.0 (-0.0));
  Alcotest.(check int64) "3 up" 3L (Oracle.ulp_distance 1.5 (ulps 1.5 3));
  Alcotest.(check int64) "across zero" 2L
    (Oracle.ulp_distance (Float.succ 0.0) (Float.pred 0.0))

let is_ok = function Ok () -> true | Error _ -> false

let test_cell_oracle () =
  let expect = [ ("h", 0.75); ("Vm", -83.2) ] in
  let answer k =
    Oracle.Cells
      {
        digest = "";
        sampled =
          [ (0, expect); (32, [ ("h", 0.75); ("Vm", ulps (-83.2) k) ]); (63, expect) ];
      }
  in
  let check engine k = is_ok (Oracle.check ~engine (Oracle.Cell_ref expect) (answer k)) in
  Alcotest.(check bool) "exact, batched" true (check Sim.Driver.Batched 0);
  Alcotest.(check bool) "2 ULP, native" true (check Sim.Driver.Native 2);
  Alcotest.(check bool) "1 ULP, batched" false (check Sim.Driver.Batched 1);
  Alcotest.(check bool) "3 ULP, native" false (check Sim.Driver.Native 3)

let tissue_ref : Oracle.tissue =
  { digest = ""; activated = 3; reactivated = 0; cv = Some 0.034; vm = [| -80.0; 10.5; 1.25 |] }

let test_tissue_oracle () =
  let check engine t = is_ok (Oracle.check ~engine (Oracle.Tissue_ref tissue_ref) (Oracle.Tissue t)) in
  let vm k = [| -80.0; ulps 10.5 k; 1.25 |] in
  Alcotest.(check bool) "2 ULP, native" true (check Sim.Driver.Native { tissue_ref with vm = vm 2 });
  Alcotest.(check bool) "3 ULP, native" false (check Sim.Driver.Native { tissue_ref with vm = vm 3 });
  Alcotest.(check bool) "activation count" false
    (check Sim.Driver.Native { tissue_ref with activated = 2 });
  Alcotest.(check bool) "CV within 1e-9" true
    (check Sim.Driver.Native { tissue_ref with cv = Some (0.034 *. (1.0 +. 1e-12)) });
  Alcotest.(check bool) "CV off by 1e-6" false
    (check Sim.Driver.Native { tissue_ref with cv = Some (0.034 *. (1.0 +. 1e-6)) })

let test_reference_file () =
  let w = Option.get (Workload.find ~smoke:true "sheet-cg-batched") in
  let path = scratch "sheet.ref" in
  Oracle.write_reference path w ~dt:0.01 tissue_ref;
  (match Oracle.read_reference path w ~dt:0.01 with
  | Ok r -> Alcotest.(check bool) "round trip" true (r = tissue_ref)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "a reference for another dt is refused" false
    (Result.is_ok (Oracle.read_reference path w ~dt:0.0099));
  Sys.remove path

(* -- smoke-scale invocations ------------------------------------------ *)

let need_cc () =
  if Exec.Native.toolchain () = None then Alcotest.skip ()

let sessions = lazy (Bench.run ~exe:main_exe ~work ~refs:"" ~smoke:true ~seed:0 ~reps:1)
let get k l = match List.assoc_opt k l with Some v -> v | None -> Alcotest.failf "no %s" k

let test_accounting () =
  need_cc ();
  List.iter
    (fun (s : Bench.session) ->
      let name = s.Bench.w.Workload.name in
      Alcotest.(check (list string)) (name ^ " failures") [] s.Bench.failures;
      let traced = Option.get s.Bench.traced in
      List.iter
        (fun x ->
          let u = get "bench.unaccounted_frac" x in
          if Float.abs u > 0.03 then
            Alcotest.failf "%s: layers leave %.2f%% of the child's wall unaccounted" name
              (100.0 *. u))
        (traced :: s.Bench.reps);
      List.iter
        (fun (k, v) ->
          if List.assoc_opt k Metrics.traced = Some "s" && v < 0.0 then
            Alcotest.failf "%s: negative self time %s = %g" name k v)
        traced;
      Alcotest.(check (float 0.0)) (name ^ " trace.dropped") 0.0 (get "trace.dropped" traced);
      if s.Bench.w.Workload.engine = Sim.Driver.Native then
        (* one compile per process: create never missed *)
        Alcotest.(check (float 0.0))
          (name ^ " native misses")
          (float_of_int s.Bench.w.Workload.invocations)
          (get "exec.native_misses" (List.hd s.Bench.reps));
      match s.Bench.w.Workload.shape with
      | Workload.Cells _ -> ()
      | Workload.Tissue _ ->
          let outside = get "tissue.step_s" traced and spans = get "traced_step_s" traced in
          let tissue =
            List.fold_left
              (fun a k -> a +. Option.value ~default:0.0 (List.assoc_opt k traced))
              0.0
              [ "tissue.ionic_s"; "tissue.exchange_s"; "tissue.diffusion_s"; "tissue.observe_s" ]
          in
          if Float.abs (spans -. outside) > 0.03 *. outside then
            Alcotest.failf "%s: tissue span self times sum to %g s, tissue.step_s is %g s"
              name spans outside;
          if tissue > spans *. 1.000001 then
            Alcotest.failf "%s: tissue layers exceed the step spans" name)
    (Lazy.force sessions)

(* One child invocation of a smoke workload, outside any rep. *)
let child_answer (w : Workload.t) ~(variant : int) : Oracle.answer =
  let root = Filename.concat work "parity" in
  Bench.rm_rf root;
  List.iter (fun d -> Bench.mkdir_p (Filename.concat root d)) [ "tmp"; "cache" ];
  let i =
    Bench.spawn ~exe:main_exe ~root
      [ "child"; "--workload"; w.Workload.name; "--variant"; string_of_int variant; "--smoke" ]
  in
  Bench.rm_rf root;
  match i.Bench.outcome with Ok r -> r.Child.answer | Error e -> Alcotest.fail e

let cli_digest (w : Workload.t) ~(variant : int) : string =
  let ckpt_dir = Filename.concat work "cli-checkpoints" in
  Bench.rm_rf ckpt_dir;
  let args = Workload.cli_args w ~variant ~ckpt_dir in
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then
    Alcotest.failf "limpetmlir %s failed" (String.concat " " args);
  Bench.rm_rf ckpt_dir;
  let prefix = "# final state digest: " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
  with
  | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> Alcotest.failf "no digest from limpetmlir %s" (String.concat " " args)

let test_cli_parity () =
  need_cc ();
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun variant ->
          Alcotest.(check string)
            (Printf.sprintf "%s variant %d" w.Workload.name variant)
            (cli_digest w ~variant)
            (Oracle.digest (child_answer w ~variant)))
        [ 0; 1 ])
    Workload.smoke

(* The parent must reject a real answer when the reference is 3 ULP off. *)
let test_perturbed_reference () =
  need_cc ();
  List.iter
    (fun (w : Workload.t) ->
      let answer = child_answer w ~variant:0 in
      let reference =
        match Oracle.reference ~smoke:true ~dir:"" w ~variant:0 with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let perturbed =
        match reference with
        | Oracle.Cell_ref l -> Oracle.Cell_ref (List.map (fun (k, v) -> (k, ulps v 3)) l)
        | Oracle.Tissue_ref t ->
            let vm = Array.copy t.Oracle.vm in
            vm.(0) <- ulps vm.(0) 3;
            Oracle.Tissue_ref { t with Oracle.vm }
      in
      let engine = w.Workload.engine in
      Alcotest.(check bool) (w.Workload.name ^ " matches its reference") true
        (is_ok (Oracle.check ~engine reference answer));
      Alcotest.(check bool) (w.Workload.name ^ " fails a 3-ULP-perturbed reference") false
        (is_ok (Oracle.check ~engine perturbed answer)))
    Workload.smoke

let () =
  Alcotest.run "e2e"
    [
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "result files" `Quick test_compare_files;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "ulp distance" `Quick test_ulp_distance;
          Alcotest.test_case "cell answers" `Quick test_cell_oracle;
          Alcotest.test_case "tissue answers" `Quick test_tissue_oracle;
          Alcotest.test_case "reference files" `Quick test_reference_file;
          Alcotest.test_case "perturbed reference fails" `Quick test_perturbed_reference;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "layer accounting" `Quick test_accounting;
          Alcotest.test_case "CLI parity" `Quick test_cli_parity;
        ] );
    ]
