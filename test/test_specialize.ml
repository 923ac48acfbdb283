(* Runtime-specialization tests: qcheck semantic-identity property on
   random straight-line kernels with random binding environments, the
   43-model bitwise differential (specialized == unspecialized on the
   closure and batched engines), cache identity of specialized artifacts
   and canonical env serialization. *)

open Exec
module C = Codegen.Config
module B = Ir.Builder
module S = Passes.Specialize

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()
let ncells = 13
let configs = [ ("scalar", C.baseline); ("vector", C.mlir ~width:4) ]

let gen_of name cfg =
  let e = Models.Registry.find_exn name in
  Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name (fun () ->
      Models.Registry.model e)

(* -- qcheck: specialization is a semantic identity ---------------------- *)

(* A random expression over two loaded streams and one scalar parameter
   [k], lowered into a parallel loop.  Specializing on [k] must leave
   the observable function bitwise unchanged — on the closure engine and
   on the batched engine (whose constant-row prefill the folded
   broadcasts feed). *)
let lower_kernel ~(w : int) (e : Easyml.Ast.expr) : Ir.Func.modl =
  let m = Ir.Func.create_module "spec_loop" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64; Ir.Ty.F64 ]
       ~results:[]
       (fun b args ->
         let in1 = List.nth args 0
         and in2 = List.nth args 1
         and out = List.nth args 2
         and n = List.nth args 3
         and k = List.nth args 4 in
         ignore
           (B.for_ b ~parallel:true ~lb:(B.consti b 0) ~ub:n
              ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x, y =
                  if w = 1 then
                    (B.load b ~mem:in1 ~idx:iv, B.load b ~mem:in2 ~idx:iv)
                  else
                    ( B.vec_load b ~width:w ~mem:in1 ~idx:iv,
                      B.vec_load b ~width:w ~mem:in2 ~idx:iv )
                in
                let kv = if w = 1 then k else B.broadcast b ~width:w k in
                let env =
                  Codegen.Lower.make_env ~b ~width:w
                    [ ("x", x); ("y", y); ("k", kv) ]
                in
                let r = Codegen.Lower.lower_num env e in
                if w = 1 then B.store b r ~mem:out ~idx:iv
                else B.vec_store b ~vec:r ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

let run_kernel ~(engine : [ `Batched | `Closure ]) (m : Ir.Func.modl)
    ~(n : int) ~(k : float) (in1 : floatarray) (in2 : floatarray) : floatarray
    =
  let out = Float.Array.make n 0.0 in
  let args = [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n; Rt.F k |] in
  (match engine with
  | `Batched -> ignore (Batched.run ~tile:0 m "f" args)
  | `Closure -> ignore (Engine.run m "f" args));
  out

let spec_identity ~(w : int) name =
  Helpers.qtest ~count:120 name
    QCheck.(
      pair
        (Helpers.arbitrary_expr [ "x"; "y"; "k" ])
        (float_range (-4.0) 4.0))
    (fun (e, kval) ->
      let m = lower_kernel ~w e in
      Ir.Verifier.verify_module_exn m;
      let spec, st =
        S.run m ~bind:(fun fn ->
            if String.equal fn.Ir.Func.f_name "f" then
              [ (List.nth fn.Ir.Func.f_params 4, S.BF kval) ]
            else [])
      in
      Ir.Verifier.verify_module_exn spec;
      if st.S.bound <> 1 then
        QCheck.Test.fail_reportf "expected 1 binding, got %d" st.S.bound;
      let n = 12 in
      let in1 = Float.Array.init n (fun i -> Float.sin (float_of_int (i + 1)))
      and in2 = Float.Array.init n (fun i -> Float.cos (float_of_int i)) in
      let want = run_kernel ~engine:`Closure m ~n ~k:kval in1 in2 in
      List.for_all
        (fun engine ->
          let got = run_kernel ~engine spec ~n ~k:kval in1 in2 in
          let ok = ref true in
          for i = 0 to n - 1 do
            if
              not
                (Helpers.same_float (Float.Array.get got i)
                   (Float.Array.get want i))
            then ok := false
          done;
          !ok)
        [ `Closure; `Batched ])

(* -- 43-model bitwise differential -------------------------------------- *)

(* Specialized == unspecialized, bitwise, for every bundled model on the
   closure and batched engines, scalar and vector configs: the exploited
   run constants (dt, padded cell count) fold without
   perturbing a single bit of the trajectory. *)
let test_all_models_specialized_bitwise () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g =
            Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
                Models.Registry.model e)
          in
          let run d =
            for _ = 1 to 50 do
              Sim.Driver.step ~stim d
            done;
            List.map (fun c -> (c, Sim.Driver.snapshot d c)) [ 0; 6; 12 ]
          in
          List.iter
            (fun (ename, engine) ->
              let base =
                run
                  (Sim.Driver.create ~engine ~specialize:false g ~ncells
                     ~dt:0.01)
              in
              let spec =
                run
                  (Sim.Driver.create ~engine ~specialize:true g ~ncells
                     ~dt:0.01)
              in
              List.iter2
                (fun (cell, a) (_, b) ->
                  Test_batched.check_snapshots
                    ~ctx:
                      (Printf.sprintf "%s/%s/%s cell %d" e.name cname ename
                         cell)
                    a b)
                base spec)
            [ ("closure", Sim.Driver.Compiled); ("batched", Sim.Driver.Batched) ])
        configs)
    Models.Registry.all

(* The reference interpreter stays the pristine differential baseline:
   asking for specialization on it is a no-op. *)
let test_reference_never_specialized () =
  let g = gen_of "MitchellSchaeffer" C.baseline in
  let d =
    Sim.Driver.create ~engine:Sim.Driver.Reference ~specialize:true g
      ~ncells:4 ~dt:0.01
  in
  Alcotest.(check bool)
    "reference driver not specialized" false d.Sim.Driver.specialized;
  let db =
    Sim.Driver.create ~engine:Sim.Driver.Batched ~specialize:true g ~ncells:4
      ~dt:0.01
  in
  Alcotest.(check bool) "batched driver specialized" true db.Sim.Driver.specialized

(* -- cache identity ------------------------------------------------------ *)

let test_cache_identity () =
  (* off-beat dt / pad so earlier tests cannot have warmed these keys *)
  let g = gen_of "MitchellSchaeffer" (C.mlir ~width:4) in
  Codegen.Cache.reset_stats ();
  let s1 = Codegen.Cache.specialize g ~dt:0.017 ~ncells_pad:24 in
  let s2 = Codegen.Cache.specialize g ~dt:0.017 ~ncells_pad:24 in
  Alcotest.(check bool) "same env twice is one artifact" true (s1 == s2);
  let st = Codegen.Cache.stats () in
  Alcotest.(check int) "one specialization run" 1 st.Codegen.Cache.spec_misses;
  Alcotest.(check bool) "second lookup hit" true (st.Codegen.Cache.spec_hits >= 1);
  let s3 = Codegen.Cache.specialize g ~dt:0.019 ~ncells_pad:24 in
  Alcotest.(check bool) "different dt is a new artifact" true (s3 != s1);
  (* content identity: a freshly generated kernel with bitwise-identical
     IR (deterministic codegen) shares the cached artifact even though
     it is a different physical instance *)
  let e = Models.Registry.find_exn "MitchellSchaeffer" in
  let g2 =
    Codegen.Kernel.generate (C.mlir ~width:4) (Models.Registry.model e)
  in
  let s4 = Codegen.Cache.specialize g2 ~dt:0.017 ~ncells_pad:24 in
  Alcotest.(check bool) "identical content shares the artifact" true
    (s4 == s1)

(* Two different kernels under one model name and one env must never
   alias: the content digest in the specialization key keeps them
   apart (a name-keyed env alone would serve the first kernel's
   artifact for the second kernel). *)
let test_cache_content_digest () =
  let source coeff =
    Printf.sprintf
      "Vm; .external(); .nodal();\n\
       Iion; .external(); .nodal();\n\
       Vm_init = -65.0;\n\
       m; m_init = 0.1;\n\
       diff_m = (%s - m)/1.0;\n\
       Iion = m*(Vm + 65.0);\n"
      coeff
  in
  let gen coeff =
    let m = Easyml.Sema.analyze_source ~name:"spec_twin" (source coeff) in
    Codegen.Kernel.generate C.baseline m
  in
  let ga = gen "0.2" and gb = gen "0.3" in
  let sa = Codegen.Cache.specialize ga ~dt:0.013 ~ncells_pad:8 in
  let sb = Codegen.Cache.specialize gb ~dt:0.013 ~ncells_pad:8 in
  Alcotest.(check bool) "same name, different content, distinct artifacts"
    true (sa != sb)

let test_canon_env () =
  let a = ("dt", S.BF 0.01) and b = ("ncells_pad", S.BI 16) in
  Alcotest.(check string)
    "order independent"
    (S.canon_env [ a; b ])
    (S.canon_env [ b; a ]);
  Alcotest.(check bool)
    "-0.0 does not alias 0.0" true
    (S.canon_env [ ("x", S.BF 0.0) ] <> S.canon_env [ ("x", S.BF (-0.0)) ]);
  Alcotest.(check bool)
    "float and int bindings distinct" true
    (S.canon_env [ ("x", S.BF 1.0) ] <> S.canon_env [ ("x", S.BI 1) ])

(* The driver binds both run constants on real kernels. *)
let test_driver_bindings_bound () =
  let g = gen_of "LuoRudy91" (C.mlir ~width:4) in
  let _, st =
    S.run g.Codegen.Kernel.modl
      ~bind:(Codegen.Cache.spec_bindings ~dt:0.01 ~ncells_pad:16)
  in
  Alcotest.(check bool)
    (Printf.sprintf "compute + lut_init bindings (got %d)" st.S.bound)
    true (st.S.bound >= 2)

let suite =
  [
    spec_identity ~w:1
      "specialize == identity on random scalar kernels (closure + batched)";
    spec_identity ~w:4
      "specialize == identity on random vector kernels (closure + batched)";
    Alcotest.test_case "all 43: specialized == unspecialized bitwise" `Slow
      test_all_models_specialized_bitwise;
    Alcotest.test_case "reference engine never specialized" `Quick
      test_reference_never_specialized;
    Alcotest.test_case "specialized artifacts cached by identity" `Quick
      test_cache_identity;
    Alcotest.test_case "content digest keeps same-name kernels apart" `Quick
      test_cache_content_digest;
    Alcotest.test_case "canonical env serialization" `Quick test_canon_env;
    Alcotest.test_case "driver run constants all bind" `Quick
      test_driver_bindings_bound;
  ]
