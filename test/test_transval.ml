(* Translation-validation tests.

   Three layers:
   - qcheck properties on random lowered loops: the validated pipeline
     proves every pass application AND the optimized kernel stays
     bitwise-identical to the unoptimized one under the interpreter
     (so the symbolic prover and the concrete semantics agree);
     normalization is deterministic and idempotent ({!Transval.self_check});
   - the one normalization law, the equal-arm select, proves exactly
     the rewrites it licenses;
   - a mutation harness: deliberate miscompiles (dropped store,
     wrong constant, reassociated float add, stale CSE reuse, an
     unsound hoist, [x + 0.0] rewritten to [x]) injected into a
     standard pass must each be refuted, with the certificate blaming
     the sabotaged pass;
   - the 43-model sweep: every bundled model, scalar and vector configs,
     must validate with zero refutations and no more Unknowns than the
     checked-in baseline. *)

open Ir
module B = Ir.Builder
module TV = Analysis.Transval
module P = Passes.Pass
module C = Codegen.Config

(* ---------------------------------------------------------------------- *)
(* qcheck: validated pipeline == interpreter semantics                     *)
(* ---------------------------------------------------------------------- *)

(* A random expression over two loaded streams and one scalar parameter
   [k], lowered into a parallel loop. *)
let lower_kernel ~(w : int) (e : Easyml.Ast.expr) : Ir.Func.modl =
  let m = Ir.Func.create_module "tv_loop" in
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

let run_kernel (m : Ir.Func.modl) ~(n : int) ~(k : float) (in1 : floatarray)
    (in2 : floatarray) : floatarray =
  let out = Float.Array.make n 0.0 in
  ignore
    (Exec.Interp.run m "f"
       [| Exec.Rt.M in1; Exec.Rt.M in2; Exec.Rt.M out; Exec.Rt.I n; Exec.Rt.F k |]);
  out

let in1 = Float.Array.init 12 (fun i -> Float.sin (float_of_int (i + 1)))
let in2 = Float.Array.init 12 (fun i -> Float.cos (float_of_int i))

let validated_pipeline ~w name =
  Helpers.qtest ~count:80 name
    (Helpers.arbitrary_expr [ "x"; "y"; "k" ])
    (fun e ->
      let m = lower_kernel ~w e in
      Ir.Verifier.verify_module_exn m;
      let m0 = Ir.Func.copy_module m in
      let certs = ref [] in
      let validate pass pre post =
        let c = TV.check_module ~pass pre post in
        certs := c :: !certs;
        if TV.is_refuted c then
          QCheck.Test.fail_reportf "pipeline refuted: %s" (TV.cert_to_json c)
      in
      Passes.Pipeline.optimize ~validate m;
      if List.exists TV.is_unknown !certs then
        QCheck.Test.fail_reportf "unexpected Unknown verdict on a random loop";
      if !certs = [] then QCheck.Test.fail_reportf "no certificates recorded";
      (* the proof must agree with the concrete semantics: optimized ==
         unoptimized, bitwise, on the interpreter *)
      let n = 12 in
      let want = run_kernel m0 ~n ~k:0.7 in1 in2
      and got = run_kernel m ~n ~k:0.7 in1 in2 in
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          not
            (Helpers.same_float (Float.Array.get got i)
               (Float.Array.get want i))
        then ok := false
      done;
      !ok)

(* Normalization is deterministic and idempotent on every term the
   evaluator builds for a random kernel — the oriented/terminating
   rewrite check. *)
let normalization_stable ~w name =
  Helpers.qtest ~count:120 name
    (Helpers.arbitrary_expr [ "x"; "y"; "k" ])
    (fun e ->
      let m = lower_kernel ~w e in
      Passes.Pipeline.optimize m;
      match TV.self_check m with
      | Ok n -> n > 0
      | Error msg -> QCheck.Test.fail_reportf "self_check: %s" msg)

(* The equal-arm select law: [select(c, e, e')] where [e] and [e'] are
   separate ops of the same shape normalizes to [e], so a rewrite to [e]
   proves; replacing a select whose arms differ, or an equal-arm select
   by something else, refutes. *)
let test_equal_arm_select () =
  let func ~name (body : B.t -> Ir.Value.t -> Ir.Value.t -> Ir.Value.t) =
    let m = Func.create_module name in
    let c = B.create_ctx () in
    Func.add_func m
      (B.func c ~name:"f" ~params:[ Ty.F64; Ty.F64; Ty.Memref ] ~results:[]
         (fun b args ->
           let x = List.nth args 0 and y = List.nth args 1 in
           B.store b (body b x y) ~mem:(List.nth args 2) ~idx:(B.consti b 0);
           B.ret b []));
    m
  in
  let guard b x y = B.cmpf b Ir.Op.Lt x y in
  let exp b v = B.math b "exp" [ v ] in
  let same_arms =
    func ~name:"same" (fun b x y -> B.select b (guard b x y) (exp b x) (exp b x))
  and other_arms =
    func ~name:"other" (fun b x y -> B.select b (guard b x y) (exp b x) (exp b y))
  and arm = func ~name:"arm" (fun b x _ -> exp b x)
  and other = func ~name:"other_arm" (fun b _ y -> exp b y) in
  let verdict src tgt = (TV.check_module ~pass:"rewrite" src tgt).TV.c_verdict in
  (match verdict same_arms arm with
  | TV.Proved -> ()
  | v -> Alcotest.failf "equal arms -> arm: %s" (TV.verdict_name v));
  List.iter
    (fun (what, src, tgt) ->
      match verdict src tgt with
      | TV.Refuted _ -> ()
      | v -> Alcotest.failf "%s: expected refuted, got %s" what (TV.verdict_name v))
    [
      ("unequal arms -> first arm", other_arms, arm);
      ("equal arms -> another value", same_arms, other);
    ]

(* ---------------------------------------------------------------------- *)
(* Mutation harness: every miscompile class must be refuted, with the     *)
(* certificate blaming the pass it was injected into.                     *)
(* ---------------------------------------------------------------------- *)

(* Fixture A: a parallel loop doing
     a = (x + y) + k;  t = k * 2.0;  out[i] = a * t
   — has a reassociation target, a foldable-shape BinF and a store. *)
let fixture_loop () : Func.modl =
  let m = Func.create_module "mut_loop" in
  let c = B.create_ctx () in
  Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ty.Memref; Ty.Memref; Ty.Memref; Ty.I64; Ty.F64 ]
       ~results:[]
       (fun b args ->
         let mem1 = List.nth args 0
         and mem2 = List.nth args 1
         and out = List.nth args 2
         and n = List.nth args 3
         and k = List.nth args 4 in
         ignore
           (B.for_ b ~parallel:true ~lb:(B.consti b 0) ~ub:n
              ~step:(B.consti b 1) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x = B.load b ~mem:mem1 ~idx:iv
                and y = B.load b ~mem:mem2 ~idx:iv in
                let a = B.addf b (B.addf b x y) k in
                let t = B.mulf b k (B.constf b 2.0) in
                B.store b (B.mulf b a t) ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

(* Fixture B: load / overwrite / reload of the same cell — the reload
   must NOT be CSE'd into the first load. *)
let fixture_reload () : Func.modl =
  let m = Func.create_module "mut_reload" in
  let c = B.create_ctx () in
  Func.add_func m
    (B.func c ~name:"f" ~params:[ Ty.Memref; Ty.Memref ] ~results:[]
       (fun b args ->
         let mem = List.nth args 0 and out = List.nth args 1 in
         let i0 = B.consti b 0 in
         let x = B.load b ~mem ~idx:i0 in
         B.store b (B.addf b x (B.constf b 1.0)) ~mem ~idx:i0;
         let y = B.load b ~mem ~idx:i0 in
         B.store b y ~mem:out ~idx:i0;
         B.ret b []));
  m

(* Fixture C: a loop whose body stores to a cell and then loads it back
   — hoisting that load above the loop is a miscompile. *)
let fixture_hoist () : Func.modl =
  let m = Func.create_module "mut_hoist" in
  let c = B.create_ctx () in
  Func.add_func m
    (B.func c ~name:"f" ~params:[ Ty.Memref; Ty.Memref; Ty.I64; Ty.F64 ]
       ~results:[]
       (fun b args ->
         let mem = List.nth args 0
         and out = List.nth args 1
         and n = List.nth args 2
         and k = List.nth args 3 in
         let i0 = B.consti b 0 in
         ignore
           (B.for_ b ~lb:(B.consti b 0) ~ub:n ~step:(B.consti b 1) ~inits:[]
              (fun ~iv ~iters:_ ->
                B.store b k ~mem ~idx:i0;
                let y = B.load b ~mem ~idx:i0 in
                B.store b y ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

(* Fixture D: out[i] = 1 / (x + 0.0) — [x + 0.0] is [+0.0] at
   [x = -0.0], so rewriting it to [x] flips the quotient's sign. *)
let fixture_plus_zero () : Func.modl =
  let m = Func.create_module "mut_plus_zero" in
  let c = B.create_ctx () in
  Func.add_func m
    (B.func c ~name:"f" ~params:[ Ty.Memref; Ty.Memref; Ty.I64 ] ~results:[]
       (fun b args ->
         let mem = List.nth args 0
         and out = List.nth args 1
         and n = List.nth args 2 in
         ignore
           (B.for_ b ~lb:(B.consti b 0) ~ub:n ~step:(B.consti b 1) ~inits:[]
              (fun ~iv ~iters:_ ->
                let sum = B.addf b (B.load b ~mem ~idx:iv) (B.constf b 0.0) in
                B.store b (B.divf b (B.constf b 1.0) sum) ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

(* -- sabotage primitives ------------------------------------------------ *)

(* Walk regions outer-to-inner, returning the first region whose op list
   contains an op satisfying [pred]. *)
let rec find_in_region (pred : Op.op -> bool) (r : Op.region) :
    (Op.region * Op.op) option =
  match List.find_opt pred r.Op.r_ops with
  | Some o -> Some (r, o)
  | None ->
      List.fold_left
        (fun acc (o : Op.op) ->
          match acc with
          | Some _ -> acc
          | None ->
              Array.fold_left
                (fun acc sub ->
                  match acc with
                  | Some _ -> acc
                  | None -> find_in_region pred sub)
                None o.Op.regions)
        None r.Op.r_ops

let max_value_id (f : Func.func) : int =
  let m = ref 0 in
  let vid (v : Value.t) = if v.Value.id > !m then m := v.Value.id in
  List.iter vid f.Func.f_params;
  let rec go (r : Op.region) =
    List.iter vid r.Op.r_args;
    List.iter
      (fun (o : Op.op) ->
        Array.iter vid o.Op.operands;
        Array.iter vid o.Op.results;
        Array.iter go o.Op.regions)
      r.Op.r_ops
  in
  go f.Func.f_body;
  !m

let replace_op (r : Op.region) (old : Op.op) (news : Op.op list) : unit =
  r.Op.r_ops <-
    List.concat_map
      (fun o -> if o == old then news else [ o ])
      r.Op.r_ops

(* Point every use of [from] at [into]. *)
let replace_uses (f : Func.func) ~(from : Value.t) ~(into : Value.t) : unit =
  Op.iter_region
    (fun (o : Op.op) ->
      Array.iteri
        (fun i (v : Value.t) ->
          if v.Value.id = from.Value.id then o.Op.operands.(i) <- into)
        o.Op.operands)
    f.Func.f_body

(* Dropped op: delete the first store. *)
let sab_drop_store (f : Func.func) : bool =
  let is_store (o : Op.op) =
    match o.Op.kind with Op.MemStore | Op.VecStore -> true | _ -> false
  in
  match find_in_region is_store f.Func.f_body with
  | None -> false
  | Some (r, o) ->
      r.Op.r_ops <- List.filter (fun x -> x != o) r.Op.r_ops;
      true

(* Wrong-constant fold: replace the first scalar float BinF by a
   constant that is not its value. *)
let sab_wrong_fold (f : Func.func) : bool =
  let is_target (o : Op.op) =
    match o.Op.kind with
    | Op.BinF _ -> o.Op.results.(0).Value.ty = Ty.F64
    | _ -> false
  in
  match find_in_region is_target f.Func.f_body with
  | None -> false
  | Some (r, o) ->
      replace_op r o
        [
          {
            Op.o_id = 1_000_001;
            kind = Op.ConstF 0.1251;
            operands = [||];
            results = o.Op.results;
            regions = [||];
          };
        ];
      true

(* Reassociated float add: rewrite (a + b) + c into a + (b + c). *)
let sab_reassoc (f : Func.func) : bool =
  let defs : (int, Op.op) Hashtbl.t = Hashtbl.create 64 in
  let rec index (r : Op.region) =
    List.iter
      (fun (o : Op.op) ->
        Array.iter (fun (v : Value.t) -> Hashtbl.replace defs v.Value.id o)
          o.Op.results;
        Array.iter index o.Op.regions)
      r.Op.r_ops
  in
  index f.Func.f_body;
  let inner_add (v : Value.t) =
    match Hashtbl.find_opt defs v.Value.id with
    | Some { Op.kind = Op.BinF Op.FAdd; operands = [| a; b |]; _ } ->
        Some (a, b)
    | _ -> None
  in
  let is_target (o : Op.op) =
    match o.Op.kind with
    | Op.BinF Op.FAdd -> inner_add o.Op.operands.(0) <> None
    | _ -> false
  in
  match find_in_region is_target f.Func.f_body with
  | None -> false
  | Some (r, o) ->
      let a, b =
        match inner_add o.Op.operands.(0) with
        | Some ab -> ab
        | None -> assert false
      in
      let c = o.Op.operands.(1) in
      let bc = { Value.id = max_value_id f + 1; ty = Ty.F64 } in
      let mk_add id operands results =
        {
          Op.o_id = id;
          kind = Op.BinF Op.FAdd;
          operands;
          results;
          regions = [||];
        }
      in
      replace_op r o
        [
          mk_add 1_000_002 [| b; c |] [| bc |];
          mk_add 1_000_003 [| a; bc |] o.Op.results;
        ];
      true

(* Signed-zero miscompile: rewrite uses of [x + 0.0] to [x]. *)
let sab_drop_plus_zero (f : Func.func) : bool =
  let zeros = Hashtbl.create 8 in
  Op.iter_region
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.ConstF 0.0 -> Hashtbl.replace zeros o.Op.results.(0).Value.id ()
      | _ -> ())
    f.Func.f_body;
  let target = ref None in
  Op.iter_region
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.BinF Op.FAdd
        when !target = None && Hashtbl.mem zeros o.Op.operands.(1).Value.id ->
          target := Some (o.Op.results.(0), o.Op.operands.(0))
      | _ -> ())
    f.Func.f_body;
  match !target with
  | None -> false
  | Some (from, into) ->
      replace_uses f ~from ~into;
      true

(* Stale CSE reuse: rewrite uses of a reload to the pre-store load of
   the same cell. *)
let sab_stale_cse (f : Func.func) : bool =
  let first_load = ref None and second_load = ref None in
  Op.iter_region
    (fun (o : Op.op) ->
      match (o.Op.kind, !first_load) with
      | Op.MemLoad, None -> first_load := Some o
      | Op.MemLoad, Some fst_ when !second_load = None ->
          if
            fst_.Op.operands.(0).Value.id = o.Op.operands.(0).Value.id
            && fst_.Op.operands.(1).Value.id = o.Op.operands.(1).Value.id
          then second_load := Some o
      | _ -> ())
    f.Func.f_body;
  match (!first_load, !second_load) with
  | Some l1, Some l2 ->
      replace_uses f ~from:l2.Op.results.(0) ~into:l1.Op.results.(0);
      true
  | _ -> false

(* Unsound hoist: move the loop-body load above the loop. *)
let sab_hoist_load (f : Func.func) : bool =
  let body = f.Func.f_body in
  let for_op =
    List.find_opt
      (fun (o : Op.op) ->
        match o.Op.kind with Op.For _ -> true | _ -> false)
      body.Op.r_ops
  in
  match for_op with
  | None -> false
  | Some fo -> (
      let loop_body = fo.Op.regions.(0) in
      match
        List.find_opt
          (fun (o : Op.op) -> o.Op.kind = Op.MemLoad)
          loop_body.Op.r_ops
      with
      | None -> false
      | Some load ->
          loop_body.Op.r_ops <-
            List.filter (fun o -> o != load) loop_body.Op.r_ops;
          body.Op.r_ops <-
            List.concat_map
              (fun o -> if o == fo then [ load; fo ] else [ o ])
              body.Op.r_ops;
          true)

(* -- the harness -------------------------------------------------------- *)

exception Refutation of TV.cert

(* Run the standard pipeline on [m] with [sab] spliced into the pass
   named [pass] (first application only), validating every step; return
   the first refutation's certificate. *)
let run_sabotaged ~(pass : string) (sab : Func.func -> bool)
    (m : Func.modl) : TV.cert option =
  let fired = ref false in
  let wrap (p : P.t) : P.t =
    {
      P.name = p.P.name;
      run =
        (fun fn ->
          let changed = p.P.run fn in
          if !fired then changed
          else begin
            fired := true;
            let s = sab fn in
            if not s then
              Alcotest.failf "sabotage for %s found no target" pass;
            s || changed
          end);
    }
  in
  let pipeline =
    List.map
      (fun (p : P.t) -> if String.equal p.P.name pass then wrap p else p)
      Passes.Pipeline.standard
  in
  let validate name pre post =
    let c = TV.check_module ~pass:name pre post in
    if TV.is_refuted c then raise (Refutation c)
    else if TV.is_unknown c then
      Alcotest.failf "unexpected Unknown during mutation run of %s" pass
  in
  match P.run_pipeline ~validate pipeline m with
  | () -> None
  | exception Refutation c -> Some c

let assert_refutes ~pass sab fixture () =
  let m = fixture () in
  Ir.Verifier.verify_module_exn m;
  (* un-sabotaged control: the same fixture validates cleanly *)
  let control = Ir.Func.copy_module m in
  let validate name pre post =
    let c = TV.check_module ~pass:name pre post in
    if not (c.TV.c_verdict = TV.Proved) then
      Alcotest.failf "control run not proved at %s: %s" name
        (TV.cert_to_json c)
  in
  P.run_pipeline ~validate Passes.Pipeline.standard control;
  match run_sabotaged ~pass sab m with
  | None -> Alcotest.failf "miscompile injected into %s was not refuted" pass
  | Some c ->
      Alcotest.(check string) "responsible pass" pass c.TV.c_pass;
      (match c.TV.c_verdict with
      | TV.Refuted cx ->
          Alcotest.(check bool) "counterexample has diverging terms" true
            (String.length cx.TV.cx_src > 0 && String.length cx.TV.cx_tgt > 0)
      | _ -> Alcotest.fail "certificate is not a refutation");
      (* the refutation surfaces as an Error diagnostic naming the pass *)
      (match TV.diag_of_cert c with
      | Some d ->
          Alcotest.(check bool) "diag is an error" true (Easyml.Diag.is_error d);
          Alcotest.(check (option string)) "diag pass id" (Some pass)
            d.Easyml.Diag.pass
      | None -> Alcotest.fail "refutation produced no diagnostic")

(* ---------------------------------------------------------------------- *)
(* 43-model sweep: default pipelines, zero refutations                    *)
(* ---------------------------------------------------------------------- *)

let unknown_baseline () =
  let name = "transval_unknown_baseline.txt" in
  let candidates =
    [
      name;
      Filename.concat "test" name;
      Filename.concat (Filename.dirname Sys.executable_name) name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "baseline file %s not found" name
  | Some path ->
      let ic = open_in path in
      let n = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      n

let test_sweep () =
  Codegen.Cache.set_validation true;
  Codegen.Cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Codegen.Cache.set_validation false;
      Codegen.Cache.clear ())
    (fun () ->
      List.iter
        (fun (e : Models.Model_def.entry) ->
          List.iter
            (fun cfg ->
              ignore
                (Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
                     Models.Registry.model e)))
            [ C.baseline; C.mlir ~width:8 ])
        Models.Registry.all;
      let certs = Codegen.Cache.certificates () in
      let total = ref 0 and unknown = ref 0 and refuted = ref 0 in
      List.iter
        (fun (_, cs) ->
          List.iter
            (fun (c : TV.cert) ->
              incr total;
              if TV.is_refuted c then begin
                incr refuted;
                Fmt.epr "REFUTED: %s@." (TV.cert_to_json c)
              end
              else if TV.is_unknown c then begin
                incr unknown;
                Fmt.epr "UNKNOWN: %s@." (TV.cert_to_json c)
              end)
            cs)
        certs;
      Alcotest.(check int) "zero refutations" 0 !refuted;
      Alcotest.(check bool)
        (Printf.sprintf "Unknown count %d within baseline" !unknown)
        true
        (!unknown <= unknown_baseline ());
      (* every model contributes one certificate per pass for both
         configs *)
      let nmodels = List.length Models.Registry.all in
      Alcotest.(check bool)
        (Printf.sprintf "expected coverage (got %d certificates)" !total)
        true
        (!total >= nmodels * 2 * List.length Passes.Pipeline.standard))

let suite =
  [
    validated_pipeline ~w:1
      "validated pipeline proves + preserves random scalar loops";
    validated_pipeline ~w:4
      "validated pipeline proves + preserves random vector loops";
    normalization_stable ~w:1 "normalization deterministic and idempotent";
    Alcotest.test_case "equal-arm select law proves only its rewrite" `Quick
      test_equal_arm_select;
    Alcotest.test_case "mutation: dce drops a store -> refuted" `Quick
      (assert_refutes ~pass:"dce" sab_drop_store fixture_loop);
    Alcotest.test_case "mutation: licm folds wrong constant -> refuted"
      `Quick
      (assert_refutes ~pass:"licm" sab_wrong_fold fixture_loop);
    Alcotest.test_case "mutation: cse reassociates fadd -> refuted" `Quick
      (assert_refutes ~pass:"cse" sab_reassoc fixture_loop);
    Alcotest.test_case "mutation: cse reuses stale load -> refuted" `Quick
      (assert_refutes ~pass:"cse" sab_stale_cse fixture_reload);
    Alcotest.test_case "mutation: licm hoists load past store -> refuted"
      `Quick
      (assert_refutes ~pass:"licm" sab_hoist_load fixture_hoist);
    Alcotest.test_case "43-model sweep: default pipelines" `Slow test_sweep;
    Alcotest.test_case "mutation: x + 0.0 rewritten to x -> refuted" `Quick
      (assert_refutes ~pass:"cse" sab_drop_plus_zero fixture_plus_zero);
  ]
