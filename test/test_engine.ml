(* Execution-engine tests: the batched engine (its per-op thunks for
   straight-line code, its tiles for parallel loops) against the
   reference interpreter, the AST evaluator, and hand-computed results. *)

open Ir
open Exec

let ctx () = Builder.create_ctx ()
let modl name = Func.create_module name

(* Lower a random EasyML expression over (x, y) into a scalar function
   f(x, y) = e and into a width-w vector function, so that the engine, the
   interpreter and the AST evaluator can be compared on the same program. *)
let lower_scalar (e : Easyml.Ast.expr) : Func.modl =
  let m = modl "scalar" in
  let c = ctx () in
  let f =
    Builder.func c ~name:"f" ~params:[ Ty.F64; Ty.F64 ] ~results:[ Ty.F64 ]
      (fun b args ->
        let env =
          Codegen.Lower.make_env ~b ~width:1
            [ ("x", List.nth args 0); ("y", List.nth args 1) ]
        in
        Builder.ret b [ Codegen.Lower.lower_num env e ])
  in
  Func.add_func m f;
  m

let lower_vector ~(w : int) (e : Easyml.Ast.expr) : Func.modl =
  let m = modl "vector" in
  let c = ctx () in
  let f =
    Builder.func c ~name:"f"
      ~params:[ Ty.vec w Ty.F64; Ty.vec w Ty.F64 ]
      ~results:[ Ty.vec w Ty.F64 ]
      (fun b args ->
        let env =
          Codegen.Lower.make_env ~b ~width:w
            [ ("x", List.nth args 0); ("y", List.nth args 1) ]
        in
        Builder.ret b [ Codegen.Lower.lower_num env e ])
  in
  Func.add_func m f;
  m

let run_scalar m x y =
  match Batched.run m "f" [| Rt.F x; Rt.F y |] with
  | [| Rt.F v |] -> v
  | _ -> Alcotest.fail "expected one f64 result"

let interp_scalar m x y =
  match Interp.run m "f" [| Rt.F x; Rt.F y |] with
  | [| Rt.F v |] -> v
  | _ -> Alcotest.fail "expected one f64 result"

let engine_matches_eval =
  Helpers.qtest ~count:300 "engine == AST evaluator on lowered exprs"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = lower_scalar e in
      Verifier.verify_module_exn m;
      let got = run_scalar m x y in
      let want = Easyml.Eval.eval_alist [ ("x", x); ("y", y) ] e in
      Helpers.same_float got want)

let interp_matches_engine =
  Helpers.qtest ~count:200 "interpreter == engine on lowered exprs"
    QCheck.(
      triple (Helpers.arbitrary_expr [ "x"; "y" ])
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (e, x, y) ->
      let m = lower_scalar e in
      Helpers.same_float (run_scalar m x y) (interp_scalar m x y))

let vector_lanes_match_scalar =
  Helpers.qtest ~count:200 "vector lanes == scalar results"
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
      let w = 4 in
      let ms = lower_scalar e and mv = lower_vector ~w e in
      Verifier.verify_module_exn mv;
      let xs = [| 0.5; -1.25; 2.0; -0.125 |] in
      let ys = [| 1.5; 0.25; -2.5; 3.0 |] in
      let vx = Float.Array.init w (fun i -> xs.(i)) in
      let vy = Float.Array.init w (fun i -> ys.(i)) in
      match Batched.run mv "f" [| Rt.VF vx; Rt.VF vy |] with
      | [| Rt.VF out |] ->
          Array.for_all Fun.id
            (Array.init w (fun i ->
                 Helpers.same_float (Float.Array.get out i)
                   (run_scalar ms xs.(i) ys.(i))))
      | _ -> false)

(* -- control flow and memory ------------------------------------------- *)

let test_loop_iter_args () =
  (* sum_{i<n} i^2 via loop-carried state, engine and interpreter *)
  let c = ctx () in
  let m = modl "loop" in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.I64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let n = List.hd args in
         let res =
           Builder.for_ b ~lb:(Builder.consti b 0) ~ub:n
             ~step:(Builder.consti b 1)
             ~inits:[ Builder.constf b 0.0 ]
             (fun ~iv ~iters ->
               let fi = Builder.sitofp b iv in
               [ Builder.addf b (List.hd iters) (Builder.mulf b fi fi) ])
         in
         Builder.ret b res));
  let expect n = float_of_int ((n - 1) * n * ((2 * n) - 1) / 6) in
  List.iter
    (fun n ->
      (match Batched.run m "f" [| Rt.I n |] with
      | [| Rt.F v |] -> Helpers.fcheck "engine loop" (expect n) v
      | _ -> Alcotest.fail "bad result");
      match Interp.run m "f" [| Rt.I n |] with
      | [| Rt.F v |] -> Helpers.fcheck "interp loop" (expect n) v
      | _ -> Alcotest.fail "bad result")
    [ 0; 1; 7; 100 ]

(* A boolean-valued ternary: [up = (v > -50) ? (g < 0.4) : (g > 0.6);
   out = up ? 0.01 : -0.01] over a parallel cell loop, at width [w].
   The guard of the outer select is itself a select over i1 lanes. *)
let bool_select_kernel ~(w : int) : Func.modl =
  let open Easyml.Ast in
  let up =
    Ternary
      ( Binary (Gt, Var "v", Num (-50.0)),
        Binary (Lt, Var "g", Num 0.4),
        Binary (Gt, Var "g", Num 0.6) )
  in
  let e = Ternary (up, Num 0.01, Unary (Neg, Num 0.01)) in
  let m = modl "bool_select" in
  let c = ctx () in
  Func.add_func m
    (Builder.func c ~name:"f"
       ~params:[ Ty.Memref; Ty.Memref; Ty.Memref; Ty.I64 ]
       ~results:[]
       (fun b args ->
         let vm, g, out, n =
           match args with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
         in
         ignore
           (Builder.for_ b ~parallel:true ~lb:(Builder.consti b 0) ~ub:n
              ~step:(Builder.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let ld mem =
                  if w = 1 then Builder.load b ~mem ~idx:iv
                  else Builder.vec_load b ~width:w ~mem ~idx:iv
                in
                let env =
                  Codegen.Lower.make_env ~b ~width:w
                    [ ("v", ld vm); ("g", ld g) ]
                in
                let r = Codegen.Lower.lower_num env e in
                if w = 1 then Builder.store b r ~mem:out ~idx:iv
                else Builder.vec_store b ~vec:r ~mem:out ~idx:iv;
                []));
         Builder.ret b []));
  m

(* Every engine runs the boolean select at w = 1 and w = 4: the
   interpreter, the batched engine (which tiles the
   loop) and, with a C toolchain, the native engine. *)
let test_bool_select () =
  let vm = [| -80.; -20.; -80.; -20.; -60.; -40.; -80.; 10. |]
  and g = [| 0.3; 0.3; 0.5; 0.5; 0.7; 0.7; 0.1; 0.9 |] in
  let n = Array.length vm in
  let want =
    Array.init n (fun i ->
        let up = if vm.(i) > -50.0 then g.(i) < 0.4 else g.(i) > 0.6 in
        if up then 0.01 else -0.01)
  in
  let engines =
    [
      ("interp", fun m a -> ignore (Interp.run m "f" a));
      ("batched", fun m a -> ignore (Batched.run m "f" a));
    ]
    @
    if Native.available () then [ ("native", Test_native.call_native) ] else []
  in
  List.iter
    (fun w ->
      let m = bool_select_kernel ~w in
      Verifier.verify_module_exn m;
      Alcotest.(check bool)
        (Fmt.str "w=%d: batched tiles the loop" w)
        true
        (Batched.plan_tile m ~name:"f" > 1);
      List.iter
        (fun (name, run) ->
          let out = Float.Array.make n 0.0 in
          let buf a = Rt.M (Float.Array.of_list (Array.to_list a)) in
          run m [| buf vm; buf g; Rt.M out; Rt.I n |];
          Array.iteri
            (fun i x ->
              Helpers.fcheck
                (Fmt.str "%s w=%d cell %d" name w i)
                x (Float.Array.get out i))
            want)
        engines)
    [ 1; 4 ]

let test_memory_roundtrip () =
  (* write i*2.5 into a buffer through vector.store, read back with gather
     using reversed indices *)
  let w = 4 in
  let c = ctx () in
  let m = modl "mem" in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.Memref ] ~results:[ Ty.vec w Ty.F64 ]
       (fun b args ->
         let buf = List.hd args in
         let lanes = Builder.iota b ~width:w in
         let vals =
           Builder.mulf b
             (Builder.sitofp b lanes)
             (Builder.broadcast b ~width:w (Builder.constf b 2.5))
         in
         Builder.vec_store b ~vec:vals ~mem:buf ~idx:(Builder.consti b 0);
         (* reversed gather: idx = 3 - lane *)
         let rev =
           Builder.subi b
             (Builder.broadcast b ~width:w (Builder.consti b (w - 1)))
             lanes
         in
         let got = Builder.gather b ~mem:buf ~idxs:rev in
         Builder.ret b [ got ]));
  Verifier.verify_module_exn m;
  let buf = Rt.buffer 8 in
  (match Batched.run m "f" [| Rt.M buf |] with
  | [| Rt.VF out |] ->
      List.iteri
        (fun i want -> Helpers.fcheck "gather lane" want (Float.Array.get out i))
        [ 7.5; 5.0; 2.5; 0.0 ]
  | _ -> Alcotest.fail "bad result");
  (* the store is visible in the caller's buffer *)
  Helpers.fcheck "store visible" 5.0 (Float.Array.get buf 2)

let test_extern_call () =
  let c = ctx () in
  let m = modl "ext" in
  Func.declare_extern m
    { Func.e_name = "twice"; e_params = [ Ty.F64 ]; e_results = [ Ty.F64 ] };
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let r = Builder.call b m "twice" [ List.hd args ] in
         Builder.ret b r));
  let reg = Rt.create_registry () in
  Rt.register reg "twice" (function
    | [| Rt.F x |] -> [| Rt.F (2.0 *. x) |]
    | _ -> assert false);
  (match Batched.run ~externs:reg m "f" [| Rt.F 21.0 |] with
  | [| Rt.F v |] -> Helpers.fcheck "extern call" 42.0 v
  | _ -> Alcotest.fail "bad result");
  match Interp.run ~externs:reg m "f" [| Rt.F 21.0 |] with
  | [| Rt.F v |] -> Helpers.fcheck "interp extern call" 42.0 v
  | _ -> Alcotest.fail "bad result"

let test_local_call () =
  let c = ctx () in
  let m = modl "local" in
  Func.add_func m
    (Builder.func c ~name:"sq" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         Builder.ret b [ Builder.mulf b (List.hd args) (List.hd args) ]));
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
       (fun b args ->
         let r = Builder.call b m "sq" [ List.hd args ] in
         let r2 = Builder.call b m "sq" r in
         Builder.ret b r2));
  match Batched.run m "f" [| Rt.F 3.0 |] with
  | [| Rt.F v |] -> Helpers.fcheck "nested local calls" 81.0 v
  | _ -> Alcotest.fail "bad result"

let test_yield_swap () =
  (* parallel-copy semantics: swapping two iter_args must not clobber *)
  let c = ctx () in
  let m = modl "swap" in
  Func.add_func m
    (Builder.func c ~name:"f" ~params:[ Ty.I64 ] ~results:[ Ty.F64; Ty.F64 ]
       (fun b args ->
         let n = List.hd args in
         let a0 = Builder.constf b 1.0 and b0 = Builder.constf b 2.0 in
         let res =
           Builder.for_ b ~lb:(Builder.consti b 0) ~ub:n
             ~step:(Builder.consti b 1) ~inits:[ a0; b0 ]
             (fun ~iv:_ ~iters ->
               match iters with [ a; b' ] -> [ b'; a ] | _ -> assert false)
         in
         Builder.ret b res));
  (match Batched.run m "f" [| Rt.I 3 |] with
  | [| Rt.F a; Rt.F b |] ->
      Helpers.fcheck "swapped a (engine)" 2.0 a;
      Helpers.fcheck "swapped b (engine)" 1.0 b
  | _ -> Alcotest.fail "bad result");
  match Interp.run m "f" [| Rt.I 3 |] with
  | [| Rt.F a; Rt.F b |] ->
      Helpers.fcheck "swapped a (interp)" 2.0 a;
      Helpers.fcheck "swapped b (interp)" 1.0 b
  | _ -> Alcotest.fail "bad result"

let suite =
  [
    engine_matches_eval;
    interp_matches_engine;
    vector_lanes_match_scalar;
    Alcotest.test_case "loop iter_args" `Quick test_loop_iter_args;
    Alcotest.test_case "boolean select on every engine" `Quick test_bool_select;
    Alcotest.test_case "memory + gather/scatter" `Quick test_memory_roundtrip;
    Alcotest.test_case "extern calls" `Quick test_extern_call;
    Alcotest.test_case "local calls" `Quick test_local_call;
    Alcotest.test_case "yield parallel copy" `Quick test_yield_swap;
  ]
