(* Dataflow-framework tests: interval soundness on random lowered IR and
   on the congruence algebra, footprint soundness over random address
   chains, deep verification's definitely-negative indices, kernel bounds
   proofs, deep verification over the catalogue, and the EasyML
   lint (including the seeded bad model the CLI test rejects). *)

open Ir
module A = Analysis
module I = A.Itv.I
module F = A.Itv.F
module C = Codegen.Config

(* -- interval soundness on random straight-line IR ------------------- *)

let return_operand (f : Func.func) : Value.t =
  let ret =
    List.find (fun (o : Op.op) -> o.Op.kind = Op.Return) f.Func.f_body.Op.r_ops
  in
  ret.Op.operands.(0)

(* The converged float interval of f's return value must contain the
   engine's concrete result when the parameters are seeded with the
   concrete inputs. *)
let interval_sound_on_ir =
  Helpers.qtest ~count:300 "interval analysis contains concrete execution"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = Test_engine.lower_scalar e in
      let f = Option.get (Func.find_func m "f") in
      let seed =
        List.map2
          (fun p v -> (p, A.Interval.AF (F.const v)))
          f.Func.f_params [ x; y ]
      in
      let st = A.Interval.analyze_func ~seed f in
      let itv = A.Interval.float_itv st (return_operand f) in
      F.mem (Test_engine.run_scalar m x y) itv)

(* -- congruence-interval algebra soundness --------------------------- *)

(* x in a and y in b imply (x op y) in (a op b) for every transfer; the
   intervals are built so that x (resp. y) is a member by construction. *)
let congruence_sound =
  let gen =
    QCheck.make
      ~print:(fun (x, y, dx, dy, m1, m2) ->
        Printf.sprintf "x=%d y=%d dx=%d dy=%d m1=%d m2=%d" x y dx dy m1 m2)
      QCheck.Gen.(
        let* x = int_range (-60) 60 in
        let* y = int_range (-60) 60 in
        let* dx = int_range 0 24 in
        let* dy = int_range 0 24 in
        let* m1 = int_range 1 8 in
        let* m2 = int_range 1 8 in
        return (x, y, dx, dy, m1, m2))
  in
  Helpers.qtest ~count:500 "congruence intervals are sound for every op" gen
    (fun (x, y, dx, dy, m1, m2) ->
      let a = I.mk (x - dx) (x + dx) m1 (A.Itv.emod x m1) in
      let b = I.mk (y - dy) (y + dy) m2 (A.Itv.emod y m2) in
      I.mem x a && I.mem y b
      && I.mem (x + y) (I.add a b)
      && I.mem (x - y) (I.sub a b)
      && I.mem (x * y) (I.mul a b)
      && I.mem (min x y) (I.min_ a b)
      && I.mem (max x y) (I.max_ a b)
      && I.mem x (I.join a b)
      && I.mem y (I.join a b)
      && I.subset a (I.join a b)
      && I.overlap a (I.const x)
      && (y = 0 || I.mem (x / y) (I.div a b))
      && (y = 0 || I.mem (x mod y) (I.rem a b)))

(* -- footprint soundness over random address chains ------------------ *)

(* f(mem, i): idx = (i + c1)*c2 + c3; load mem[idx]; store mem[idx + 1].
   With i seeded to the w-aligned range [0, n], every concrete choice of
   i must produce indices inside the reported read/write intervals. *)
let footprint_fn (c1 : int) (c2 : int) (c3 : int) : Func.modl * Func.func =
  let m = Func.create_module "fp" in
  let c = Builder.create_ctx () in
  let f =
    Builder.func c ~name:"f" ~params:[ Ty.Memref; Ty.I64 ] ~results:[ Ty.F64 ]
      (fun b args ->
        let mem = List.nth args 0 and i = List.nth args 1 in
        let idx =
          Builder.addi b
            (Builder.muli b
               (Builder.addi b i (Builder.consti b c1))
               (Builder.consti b c2))
            (Builder.consti b c3)
        in
        let v = Builder.load b ~mem ~idx in
        Builder.store b v ~mem ~idx:(Builder.addi b idx (Builder.consti b 1));
        Builder.ret b [ v ])
  in
  Func.add_func m f;
  (m, f)

let footprint_sound =
  let gen =
    QCheck.make
      ~print:(fun (blk, c1, c2, c3, w) ->
        Printf.sprintf "blk=%d c1=%d c2=%d c3=%d w=%d" blk c1 c2 c3 w)
      QCheck.Gen.(
        let* blk = int_range 0 8 in
        let* c1 = int_range (-4) 4 in
        let* c2 = int_range 1 5 in
        let* c3 = int_range (-4) 4 in
        let* w = oneofl [ 1; 2; 4; 8 ] in
        return (blk, c1, c2, c3, w))
  in
  Helpers.qtest ~count:300 "footprint summary contains concrete accesses" gen
    (fun (blk, c1, c2, c3, w) ->
      let m, f = footprint_fn c1 c2 c3 in
      Verifier.verify_module_exn m;
      let i_param = List.nth f.Func.f_params 1 in
      let n = 8 * w in
      let seed = [ (i_param, A.Interval.AI (I.mk 0 n w 0)) ] in
      let _, accs = A.Footprint.of_func ~seed f in
      let i0 = min (blk * w) n in
      let idx = ((i0 + c1) * c2) + c3 in
      let on_param0 (a : A.Footprint.access) =
        A.Interval.origin_equal a.A.Footprint.acc_origin (A.Interval.Oparam 0)
      in
      List.for_all on_param0 accs
      && List.exists
           (fun (a : A.Footprint.access) -> I.mem idx a.A.Footprint.acc_itv)
           (A.Footprint.reads accs)
      && List.exists
           (fun (a : A.Footprint.access) ->
             I.mem (idx + 1) a.A.Footprint.acc_itv)
           (A.Footprint.writes accs))

(* -- deep verification: definitely-negative indices ------------------ *)

(* Deep-verify [f] alone and return the messages of its errors. *)
let deep_errors (f : Func.func) : string list =
  let m = Func.create_module "dv" in
  Func.add_func m f;
  Verifier.verify_module_exn m;
  List.map (fun (e : Verifier.error) -> e.Verifier.op ^ ": " ^ e.Verifier.msg)
    (A.Deep.verify_module m)

let check_flagged what ~(want : string list) (errs : string list) =
  Alcotest.(check int) (what ^ ": error count") (List.length want)
    (List.length errs);
  List.iter2
    (fun w e ->
      if not (Helpers.contains e w && Helpers.contains e "definitely out of bounds")
      then Alcotest.failf "%s: expected %S, got %S" what w e)
    want errs

let test_deep_constant_negative_index () =
  (* a constant negative index, and a vector access whose lanes all
     fall below zero, can never be in bounds; a vector access with some
     lanes at index >= 0 may be *)
  let c = Builder.create_ctx () in
  let f =
    Builder.func c ~name:"f" ~params:[ Ty.Memref ] ~results:[ Ty.F64 ]
      (fun b args ->
        let buf = List.hd args in
        let at k = Builder.consti b k in
        Builder.store b (Builder.constf b 1.0) ~mem:buf ~idx:(at (-3));
        let low = Builder.vec_load b ~width:4 ~mem:buf ~idx:(at (-4)) in
        let straddle = Builder.vec_load b ~width:4 ~mem:buf ~idx:(at (-2)) in
        Builder.vec_store b ~vec:(Builder.addf b low straddle) ~mem:buf
          ~idx:(at 0);
        Builder.ret b [ Builder.load b ~mem:buf ~idx:(at 2) ])
  in
  check_flagged "constant indices"
    ~want:[ "memref.store: access indices [-3"; "vector.load: access indices [-4" ]
    (deep_errors f)

let test_deep_negative_loop_range () =
  (* over iv in [0, 8): buf[iv - 10] spans [-10, -3] and is flagged,
     buf[iv - 5] reaches index 2 and is not; a loop that never runs
     reports nothing *)
  let c = Builder.create_ctx () in
  let f =
    Builder.func c ~name:"f" ~params:[ Ty.Memref ] ~results:[]
      (fun b args ->
        let buf = List.hd args in
        let sweep ~ub shift =
          ignore
            (Builder.for_ b ~lb:(Builder.consti b 0) ~ub:(Builder.consti b ub)
               ~step:(Builder.consti b 1) ~inits:[] (fun ~iv ~iters:_ ->
                 let idx = Builder.subi b iv (Builder.consti b shift) in
                 Builder.store b (Builder.constf b 0.5) ~mem:buf ~idx;
                 []))
        in
        sweep ~ub:8 10;
        sweep ~ub:8 5;
        sweep ~ub:0 10;
        Builder.ret b [])
  in
  check_flagged "loop indices" ~want:[ "memref.store: access indices [-10, -3]" ]
    (deep_errors f)

(* -- deep verification over the catalogue ------------------------------ *)

let test_all_models_deep_verify () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let m = Models.Registry.model e in
      List.iter
        (fun cfg ->
          let g =
            Codegen.Cache.generate_named cfg ~name:e.name (fun () -> m)
          in
          match A.Deep.verify_module g.Codegen.Kernel.modl with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s: %s" e.name (Verifier.errors_to_string errs))
        [ C.baseline; C.mlir ~width:4 ])
    Models.Registry.all

(* -- EasyML lint ------------------------------------------------------- *)

let read_file path =
  (* cwd is test/ under `dune runtest` but the repo root under
     `dune exec test/test_main.exe` *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_lint_flags_seeded_bad_model () =
  (* same fixture the CLI exit-code rule in test/dune checks *)
  let src = read_file "fixtures/bad_model.easyml" in
  let m = Easyml.Sema.analyze_source ~name:"bad_model" src in
  let ds = A.Lint.check m in
  let codes = List.map (fun (d : Easyml.Diag.t) -> d.Easyml.Diag.code) ds in
  Alcotest.(check bool) "unused state flagged" true
    (List.mem "unused-state" codes);
  Alcotest.(check bool) "narrow lookup flagged" true
    (List.mem "lookup-range" codes);
  Alcotest.(check bool) "lookup-range is an error" true (A.Lint.has_errors ds);
  let _, warns, errs = A.Lint.count_by_severity ds in
  Alcotest.(check bool) "severity counts" true (warns >= 1 && errs >= 1)

let test_lint_run_constant_writes () =
  (* a declared .param() integrated as a state: every read was folded to
     the compile-time value, the state silently diverges *)
  let src_param =
    "Vm; .external(); .nodal();\n\
     Iion; .external(); .nodal();\n\
     Vm_init = -65.0;\n\
     k; .param();\n\
     k = 0.5;\n\
     k_init = 0.5;\n\
     diff_k = 0.01*k;\n\
     m; m_init = 0.1;\n\
     diff_m = (0.2 - m)/1.0;\n\
     Iion = k + m*(Vm + 65.0);\n"
  in
  let m = Easyml.Sema.analyze_source ~name:"bad_param" src_param in
  let ds = A.Lint.check m in
  Alcotest.(check bool) "param-as-state is an error" true
    (List.exists
       (fun (d : Easyml.Diag.t) ->
         d.Easyml.Diag.code = "run-constant-write" && Easyml.Diag.is_error d)
       ds);
  (* assigning the driver-bound dt inside the step body *)
  let src_dt =
    "Vm; .external(); .nodal();\n\
     Iion; .external(); .nodal();\n\
     Vm_init = -65.0;\n\
     m; m_init = 0.1;\n\
     dt = 0.5;\n\
     diff_m = (0.2 - m)/1.0;\n\
     Iion = m*(Vm + 65.0) + dt;\n"
  in
  let m2 = Easyml.Sema.analyze_source ~name:"bad_dt" src_dt in
  let ds2 = A.Lint.check m2 in
  Alcotest.(check bool) "dt assignment is an error" true
    (List.exists
       (fun (d : Easyml.Diag.t) ->
         d.Easyml.Diag.code = "run-constant-write" && Easyml.Diag.is_error d)
       ds2)

let test_lint_catalogue_error_free () =
  (* the bundled models may carry warnings, but never errors *)
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let ds = A.Lint.check (Models.Registry.model e) in
      if A.Lint.has_errors ds then
        Alcotest.failf "%s: %s" e.name
          (String.concat "; "
             (List.map (Easyml.Diag.to_string ~file:e.name)
                (List.filter Easyml.Diag.is_error ds))))
    Models.Registry.all

let suite =
  [
    interval_sound_on_ir;
    congruence_sound;
    footprint_sound;
    Alcotest.test_case "deep verify: constant negative index flagged" `Quick
      test_deep_constant_negative_index;
    Alcotest.test_case "deep verify: wholly negative loop range flagged"
      `Quick test_deep_negative_loop_range;
    Alcotest.test_case "all 43: deep verification is clean" `Slow
      test_all_models_deep_verify;
    Alcotest.test_case "lint flags the seeded bad model" `Quick
      test_lint_flags_seeded_bad_model;
    Alcotest.test_case "lint: run-constant writes rejected" `Quick
      test_lint_run_constant_writes;
    Alcotest.test_case "lint: catalogue has no errors" `Quick
      test_lint_catalogue_error_free;
  ]
