(* Optimization-pass tests: semantic preservation (differentially against
   the engine), plus the specific transformations each pass promises. *)

open Ir
open Exec

let lower_expr_func (e : Easyml.Ast.expr) : Func.modl =
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64; Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let env =
           Codegen.Lower.make_env ~b ~width:1
             [ ("x", List.nth args 0); ("y", List.nth args 1) ]
         in
         Builder.ret b [ Codegen.Lower.lower_num env e ]));
  m

let run1 m x y =
  match Batched.run m "f" [| Rt.F x; Rt.F y |] with
  | [| Rt.F v |] -> v
  | _ -> Alcotest.fail "expected one result"

let op_count m =
  List.fold_left (fun n f -> n + Func.op_count f) 0 m.Func.m_funcs

let pipeline_preserves =
  Helpers.qtest ~count:250 "optimization pipeline preserves results"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = lower_expr_func e in
      let before = run1 m x y in
      Passes.Pipeline.optimize ~verify:true m;
      let after = run1 m x y in
      Helpers.same_float before after)

let each_pass_preserves =
  Helpers.qtest ~count:150 "each pass individually preserves results"
    QCheck.(
      pair (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.int_range 0 (List.length Passes.Pipeline.standard - 1)))
    (fun (e, k) ->
      let pass = List.nth Passes.Pipeline.standard k in
      let m = lower_expr_func e in
      let x = 1.25 and y = -0.75 in
      let before = run1 m x y in
      ignore (Passes.Pass.run_on_module pass m);
      (match Verifier.verify_module m with
      | [] -> ()
      | errs -> Alcotest.fail (Verifier.errors_to_string errs));
      Helpers.same_float before (run1 m x y))

(* -- CSE ---------------------------------------------------------------- *)

let test_cse_dedups () =
  (* exp(x) computed twice must collapse to one op *)
  let e =
    Easyml.Ast.(
      Binary (Add, Call ("exp", [ Var "x" ]), Call ("exp", [ Var "x" ])))
  in
  let m = lower_expr_func e in
  let count_exp () =
    List.fold_left
      (fun n f ->
        Op.fold_region
          (fun n (o : Op.op) ->
            match o.Op.kind with Op.Math "exp" -> n + 1 | _ -> n)
          n f.Func.f_body)
      0 m.Func.m_funcs
  in
  Alcotest.(check int) "two exps before" 2 (count_exp ());
  ignore (Passes.Pass.run_on_module Passes.Cse.pass m);
  Alcotest.(check int) "one exp after" 1 (count_exp ());
  Helpers.fcheck "value unchanged" (2.0 *. Float.exp 0.5) (run1 m 0.5 0.0)

(* -- DCE ---------------------------------------------------------------- *)

let test_dce_removes_dead () =
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let x = List.hd args in
         (* dead chain *)
         let d1 = Builder.math b "exp" [ x ] in
         let _d2 = Builder.mulf b d1 d1 in
         Builder.ret b [ Builder.addf b x x ]));
  let before = op_count m in
  ignore (Passes.Pass.run_on_module Passes.Dce.pass m);
  Alcotest.(check int) "dead chain removed" (before - 2) (op_count m);
  (match Batched.run m "f" [| Rt.F 2.0 |] with
  | [| Rt.F v |] -> Helpers.fcheck "value" 4.0 v
  | _ -> Alcotest.fail "bad result")

let test_dce_keeps_stores () =
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.Memref ] ~results:[]
       (fun b args ->
         let buf = List.hd args in
         Builder.store b (Builder.constf b 9.0) ~mem:buf ~idx:(Builder.consti b 0);
         Builder.ret b []));
  ignore (Passes.Pass.run_on_module Passes.Dce.pass m);
  let buf = Rt.buffer 1 in
  ignore (Batched.run m "f" [| Rt.M buf |]);
  Helpers.fcheck "store survived DCE" 9.0 (Float.Array.get buf 0)

(* -- no identity is licensed ----------------------------------------------- *)

(* [x + 0.0] is not [x]: at [x = -0.0] the sum is [+0.0].  The pipeline
   must keep [1 / (x + 0.0)] at +inf there, and every pass application
   must still validate. *)
let test_signed_zero_survives () =
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64; Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let sum = Builder.addf b (List.hd args) (Builder.constf b 0.0) in
         Builder.ret b [ Builder.divf b (Builder.constf b 1.0) sum ]));
  let is_pos_inf what =
    Alcotest.(check bool) what true (run1 m (-0.0) 0.0 = Float.infinity)
  in
  is_pos_inf "1/(-0 + 0) is +inf before";
  let validate pass pre post =
    let cert = Analysis.Transval.check_module ~pass pre post in
    if cert.Analysis.Transval.c_verdict <> Analysis.Transval.Proved then
      Alcotest.failf "%s: %s" pass (Analysis.Transval.cert_to_json cert)
  in
  Passes.Pipeline.optimize ~verify:true ~validate m;
  is_pos_inf "1/(-0 + 0) is +inf after"

(* Address arithmetic is built from OCaml ints, so the lowering never
   emits an integer [+ 0] or [* 1] for a pass to remove. *)
let test_no_integer_identity () =
  let layouts =
    [
      Codegen.Config.baseline;
      { Codegen.Config.baseline with layout = Runtime.Layout.SoA };
      Codegen.Config.mlir ~width:4;
      Codegen.Config.mlir ~width:8;
      { (Codegen.Config.mlir ~width:8) with layout = Runtime.Layout.SoA };
      Codegen.Config.autovec ~width:8;
    ]
  in
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let model = Models.Registry.model e in
      List.iter
        (fun cfg ->
          let g = Codegen.Kernel.generate ~optimize:false cfg model in
          List.iter
            (fun (f : Func.func) ->
              let consts = Hashtbl.create 64 in
              Op.iter_region
                (fun (o : Op.op) ->
                  match o.Op.kind with
                  | Op.ConstI x ->
                      Hashtbl.replace consts o.Op.results.(0).Value.id x
                  | _ -> ())
                f.Func.f_body;
              let literal k (v : Value.t) =
                Hashtbl.find_opt consts v.Value.id = Some k
              in
              Op.iter_region
                (fun (o : Op.op) ->
                  let identity =
                    match o.Op.kind with
                    | Op.BinI Op.IAdd -> Array.exists (literal 0) o.Op.operands
                    | Op.BinI Op.IMul -> Array.exists (literal 1) o.Op.operands
                    | _ -> false
                  in
                  if identity then
                    Alcotest.failf "%s %s %s: %s with an identity operand"
                      e.name (Codegen.Config.describe cfg) f.Func.f_name
                      (Op.kind_name o.Op.kind))
                f.Func.f_body)
            g.Codegen.Kernel.modl.Func.m_funcs)
        layouts)
    Models.Registry.all

(* -- LICM ----------------------------------------------------------------- *)

let test_licm_hoists () =
  (* n iterations of a loop whose body contains a loop-invariant exp *)
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.I64; Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let n = List.nth args 0 and x = List.nth args 1 in
         let res =
           Builder.for_ b ~lb:(Builder.consti b 0) ~ub:n
             ~step:(Builder.consti b 1)
             ~inits:[ Builder.constf b 0.0 ]
             (fun ~iv:_ ~iters ->
               let inv = Builder.math b "exp" [ x ] in
               [ Builder.addf b (List.hd iters) inv ])
         in
         Builder.ret b res));
  let in_loop_ops () =
    List.fold_left
      (fun n f ->
        List.fold_left
          (fun n (o : Op.op) ->
            match o.Op.kind with
            | Op.For _ -> n + List.length o.Op.regions.(0).Op.r_ops
            | _ -> n)
          n f.Func.f_body.Op.r_ops)
      0 m.Func.m_funcs
  in
  let before = in_loop_ops () in
  ignore (Passes.Pass.run_on_module Passes.Licm.pass m);
  (match Verifier.verify_module m with
  | [] -> ()
  | errs -> Alcotest.fail (Verifier.errors_to_string errs));
  Alcotest.(check bool) "loop body shrank" true (in_loop_ops () < before);
  match Batched.run m "f" [| Rt.I 5; Rt.F 0.5 |] with
  | [| Rt.F v |] -> Helpers.check_close "value" (5.0 *. Float.exp 0.5) v
  | _ -> Alcotest.fail "bad result"

(* -- memory and scoping ------------------------------------------------- *)

let count_kind (pred : Op.kind -> bool) (r : Op.region) : int =
  Op.fold_region (fun n (o : Op.op) -> if pred o.Op.kind then n + 1 else n) 0 r

let test_licm_keeps_loads () =
  (* buf[0] += 1.0, n times: the load has loop-invariant operands but a
     store in the same body writes its cell, so it must stay in the loop
     while the constant hoists *)
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.Memref; Ty.I64 ] ~results:[]
       (fun b args ->
         let buf = List.nth args 0 and n = List.nth args 1 in
         let zero = Builder.consti b 0 in
         ignore
           (Builder.for_ b ~lb:zero ~ub:n ~step:(Builder.consti b 1) ~inits:[]
              (fun ~iv:_ ~iters:_ ->
                let x = Builder.load b ~mem:buf ~idx:zero in
                Builder.store b
                  (Builder.addf b x (Builder.constf b 1.0))
                  ~mem:buf ~idx:zero;
                []));
         Builder.ret b []));
  let f = Option.get (Func.find_func m "f") in
  let loop_body () =
    match
      List.find_opt
        (fun (o : Op.op) -> match o.Op.kind with Op.For _ -> true | _ -> false)
        f.Func.f_body.Op.r_ops
    with
    | Some o -> o.Op.regions.(0)
    | None -> Alcotest.fail "loop vanished"
  in
  Alcotest.(check bool) "licm moved the constant" true
    (Passes.Licm.pass.Passes.Pass.run f);
  Verifier.verify_module_exn m;
  let body = loop_body () in
  Alcotest.(check int) "load still in the loop" 1
    (count_kind (function Op.MemLoad -> true | _ -> false) body);
  Alcotest.(check int) "constant hoisted" 0
    (count_kind (function Op.ConstF _ -> true | _ -> false) body);
  let buf = Rt.buffer 1 in
  ignore (Batched.run m "f" [| Rt.M buf; Rt.I 5 |]);
  Helpers.fcheck "five increments" 5.0 (Float.Array.get buf 0)

let test_cse_scopes_regions () =
  (* exp(x) before a loop, again inside it and again after it: the one
     inside reuses the enclosing one, and the loop body's own values are
     never visible after the loop *)
  let m = Func.create_module "t" in
  let c = Builder.create_ctx () in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64; Ty.F64; Ty.I64; Ty.Memref ]
       ~results:[]
       (fun b args ->
         let x = List.nth args 0 and y = List.nth args 1
         and n = List.nth args 2 and out = List.nth args 3 in
         let before = Builder.math b "exp" [ x ] in
         ignore
           (Builder.for_ b ~lb:(Builder.consti b 0) ~ub:n
              ~step:(Builder.consti b 1) ~inits:[] (fun ~iv ~iters:_ ->
                let inner = Builder.math b "exp" [ x ] in
                let t = Builder.math b "tanh" [ y ] in
                Builder.store b (Builder.mulf b inner t) ~mem:out ~idx:iv;
                []));
         let after = Builder.math b "tanh" [ y ] in
         Builder.store b (Builder.addf b before after) ~mem:out ~idx:n;
         Builder.ret b []));
  let f = Option.get (Func.find_func m "f") in
  let math name = count_kind (( = ) (Op.Math name)) f.Func.f_body in
  let run () =
    let out = Rt.buffer 4 in
    ignore (Batched.run m "f" [| Rt.F 0.5; Rt.F 0.3; Rt.I 3; Rt.M out |]);
    out
  in
  let want = run () in
  ignore (Passes.Pass.run_on_module Passes.Cse.pass m);
  Verifier.verify_module_exn m;
  Alcotest.(check int) "inner exp reuses the outer one" 1 (math "exp");
  Alcotest.(check int) "tanh after the loop kept" 2 (math "tanh");
  let got = run () in
  Float.Array.iteri
    (fun i w -> Helpers.fcheck "value unchanged" w (Float.Array.get got i))
    want

let test_kernel_pipeline_on_model () =
  (* the full pipeline on a real kernel: verified + observably smaller *)
  let m = Models.Registry.model (Models.Registry.find_exn "LuoRudy91") in
  let g0 = Codegen.Kernel.generate ~optimize:false Codegen.Config.baseline m in
  let g1 = Codegen.Kernel.generate ~optimize:true Codegen.Config.baseline m in
  Alcotest.(check bool) "pipeline shrinks the kernel" true
    (op_count g1.modl < op_count g0.modl / 2);
  Verifier.verify_module_exn g1.modl

let suite =
  [
    pipeline_preserves;
    each_pass_preserves;
    Alcotest.test_case "cse dedups" `Quick test_cse_dedups;
    Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
    Alcotest.test_case "signed zero survives the pipeline" `Quick
      test_signed_zero_survives;
    Alcotest.test_case "kernels carry no integer identity" `Quick
      test_no_integer_identity;
    Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists;
    Alcotest.test_case "licm keeps loads in the loop" `Quick
      test_licm_keeps_loads;
    Alcotest.test_case "cse scopes its table to the region" `Quick
      test_cse_scopes_regions;
    Alcotest.test_case "pipeline on a real kernel" `Quick
      test_kernel_pipeline_on_model;
  ]
