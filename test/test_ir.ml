(* IR tests: types, builder, verifier, printer. *)

open Ir

let ctx () = Builder.create_ctx ()

(* -- types ------------------------------------------------------------ *)

let test_ty () =
  Alcotest.(check string) "vector print" "vector<8xf64>"
    (Ty.to_string (Ty.Vec (8, Ty.F64)));
  Alcotest.(check bool) "vec 1 collapses" true
    (Ty.equal (Ty.vec 1 Ty.F64) Ty.F64);
  Alcotest.(check int) "width" 4 (Ty.width (Ty.vec 4 Ty.I64));
  Alcotest.(check bool) "like maps shape" true
    (Ty.equal (Ty.like ~like:(Ty.Vec (8, Ty.F64)) Ty.I1) (Ty.Vec (8, Ty.I1)));
  Alcotest.check_raises "vector of vector rejected"
    (Invalid_argument "Ty.vec: element must be scalar") (fun () ->
      ignore (Ty.vec 2 (Ty.Vec (2, Ty.F64))))

(* -- builder type checking --------------------------------------------- *)

let in_func body =
  let c = ctx () in
  ignore
    (Builder.func c ~name:"t" ~params:[ Ty.F64; Ty.I64; Ty.Memref ] ~results:[]
       (fun b args ->
         body b args;
         Builder.ret b []))

let test_builder_checks () =
  let expect_terror name body =
    match in_func body with
    | exception Builder.Type_error _ -> ()
    | () -> Alcotest.failf "%s: expected Type_error" name
  in
  expect_terror "addf mixes types" (fun b -> function
    | [ f; i; _ ] -> ignore (Builder.addf b f i)
    | _ -> assert false);
  expect_terror "select width mismatch" (fun b -> function
    | [ f; _; _ ] ->
        let f8 = Builder.broadcast b ~width:8 f in
        let c = Builder.cmpf b Op.Lt f8 f8 in
        let v = Builder.broadcast b ~width:4 f in
        ignore (Builder.select b c v v)
    | _ -> assert false);
  expect_terror "broadcast of an i1" (fun b -> function
    | [ f; _; _ ] -> ignore (Builder.broadcast b ~width:8 (Builder.cmpf b Op.Lt f f))
    | _ -> assert false);
  expect_terror "select over i64 arms" (fun b -> function
    | [ f; i; _ ] -> ignore (Builder.select b (Builder.cmpf b Op.Lt f f) i i)
    | _ -> assert false);
  expect_terror "math arity" (fun b -> function
    | [ f; _; _ ] -> ignore (Builder.math b "exp" [ f; f ])
    | _ -> assert false);
  expect_terror "load needs memref" (fun b -> function
    | [ f; i; _ ] -> ignore (Builder.load b ~mem:f ~idx:i)
    | _ -> assert false);
  expect_terror "for bounds must be i64" (fun b -> function
    | [ f; _; _ ] ->
        ignore
          (Builder.for_ b ~lb:f ~ub:f ~step:f ~inits:[] (fun ~iv:_ ~iters:_ -> []))
    | _ -> assert false)

(* -- a correct function builds, verifies and prints --------------------- *)

let sum_func () =
  (* sum of i*i for i in [0, n) carried through iter_args *)
  let c = ctx () in
  let f =
    Builder.func c ~name:"sum_squares" ~params:[ Ty.I64 ] ~results:[ Ty.F64 ]
      (fun b args ->
        let n = List.hd args in
        let zero = Builder.consti b 0 in
        let one = Builder.consti b 1 in
        let acc0 = Builder.constf b 0.0 in
        let res =
          Builder.for_ b ~lb:zero ~ub:n ~step:one ~inits:[ acc0 ]
            (fun ~iv ~iters ->
              let fi = Builder.sitofp b iv in
              let sq = Builder.mulf b fi fi in
              [ Builder.addf b (List.hd iters) sq ])
        in
        Builder.ret b res)
  in
  f

let test_verify_ok () =
  let f = sum_func () in
  match Verifier.verify_func f with
  | [] -> ()
  | errs -> Alcotest.fail (Verifier.errors_to_string errs)

let test_printer () =
  let f = sum_func () in
  let s = Ir.Printer.func_to_string f in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " printed") true (Helpers.contains s frag))
    [ "func.func @sum_squares"; "scf.for"; "iter_args"; "arith.mulf"; "arith.sitofp"; "func.return" ];
  (* non-finite constants print as inf, -inf, nan and -nan, and parse
     back with their sign *)
  List.iter
    (fun x ->
      let m = Func.create_module "k" in
      let c = ctx () in
      Func.add_func m
        (Builder.func c ~name:"f" ~params:[] ~results:[ Ty.F64 ] (fun b _ ->
             Builder.ret b [ Builder.constf b x ]));
      let text = Ir.Printer.module_to_string m in
      match Ir.Parser.parse_module_result text with
      | Error e -> Alcotest.failf "%h printed as %S, reparse: %s" x text e
      | Ok m2 -> (
          let f2 = List.hd m2.Func.m_funcs in
          match f2.Func.f_body.Op.r_ops with
          | { Op.kind = Op.ConstF y; _ } :: _ ->
              Alcotest.(check bool)
                (Fmt.str "%h reparses with its class and sign" x)
                true
                (Float.classify_float x = Float.classify_float y
                && Float.sign_bit x = Float.sign_bit y)
          | _ -> Alcotest.fail "constant lost"))
    [ Float.infinity; Float.neg_infinity; Float.nan; Float.neg Float.nan ]

(* -- verifier catches hand-broken IR ------------------------------------ *)

let test_verifier_catches () =
  let c = ctx () in
  let f =
    Builder.func c ~name:"bad" ~params:[ Ty.F64 ] ~results:[] (fun b args ->
        ignore (Builder.addf b (List.hd args) (List.hd args));
        Builder.ret b [])
  in
  (* mutate the op list to use a value before definition *)
  (match f.Func.f_body.Op.r_ops with
  | [ add; ret ] ->
      f.Func.f_body.Op.r_ops <- [ ret; add ]
  | _ -> Alcotest.fail "unexpected body");
  (match Verifier.verify_func f with
  | [] -> Alcotest.fail "verifier must reject return-before-def ordering"
  | _ -> ());
  (* double definition *)
  let c = ctx () in
  let g =
    Builder.func c ~name:"bad2" ~params:[ Ty.F64 ] ~results:[] (fun b args ->
        ignore (Builder.addf b (List.hd args) (List.hd args));
        Builder.ret b [])
  in
  (match g.Func.f_body.Op.r_ops with
  | [ add; ret ] -> g.Func.f_body.Op.r_ops <- [ add; add; ret ]
  | _ -> Alcotest.fail "unexpected body");
  (match Verifier.verify_func g with
  | [] -> Alcotest.fail "verifier must reject double definition"
  | _ -> ());
  (* a select over i64 arms, which the builder refuses to make *)
  let c = ctx () in
  let h =
    Builder.func c ~name:"bad3" ~params:[ Ty.F64; Ty.I64 ] ~results:[]
      (fun b args ->
        let x = List.nth args 0 and i = List.nth args 1 in
        let cond = Builder.cmpf b Op.Lt x x in
        ignore (Builder.emit1 b Op.Select [ cond; i; i ] Ty.I64);
        Builder.ret b [])
  in
  match Verifier.verify_func h with
  | [] -> Alcotest.fail "verifier must reject a select over i64 arms"
  | _ -> ()

let test_verifier_call_signature () =
  let c = ctx () in
  let m = Func.create_module "m" in
  Func.declare_extern m
    { Func.e_name = "ext"; e_params = [ Ty.F64 ]; e_results = [ Ty.F64 ] };
  let f =
    Builder.func c ~name:"caller" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
      (fun b args ->
        let r = Builder.call b m "ext" [ List.hd args ] in
        Builder.ret b r)
  in
  Func.add_func m f;
  (match Verifier.verify_module m with
  | [] -> ()
  | errs -> Alcotest.fail (Verifier.errors_to_string errs));
  (* unknown callee *)
  let c2 = ctx () in
  let m2 = Func.create_module "m2" in
  Func.declare_extern m2
    { Func.e_name = "ext"; e_params = [ Ty.F64 ]; e_results = [ Ty.F64 ] };
  let f2 =
    Builder.func c2 ~name:"caller" ~params:[ Ty.F64 ] ~results:[ Ty.F64 ]
      (fun b args ->
        let r = Builder.call b m2 "ext" [ List.hd args ] in
        Builder.ret b r)
  in
  m2.Func.m_externs <- [];
  Func.add_func m2 f2;
  match Verifier.verify_module m2 with
  | [] -> Alcotest.fail "unknown callee must be rejected"
  | _ -> ()

let test_builder_yield_types () =
  match
    in_func (fun b -> function
      | [ f; i; _ ] ->
          ignore
            (Builder.for_ b ~lb:i ~ub:i ~step:i ~inits:[ f ]
               (fun ~iv ~iters:_ -> [ iv ] (* wrong type: i64 vs f64 *)))
      | _ -> assert false)
  with
  | exception Builder.Type_error _ -> ()
  | () -> Alcotest.fail "yield type mismatch must be rejected"

let suite =
  [
    Alcotest.test_case "types" `Quick test_ty;
    Alcotest.test_case "builder type checks" `Quick test_builder_checks;
    Alcotest.test_case "verify correct function" `Quick test_verify_ok;
    Alcotest.test_case "printer fragments" `Quick test_printer;
    Alcotest.test_case "verifier catches broken IR" `Quick test_verifier_catches;
    Alcotest.test_case "verifier checks call signatures" `Quick
      test_verifier_call_signature;
    Alcotest.test_case "builder checks yield types" `Quick
      test_builder_yield_types;
  ]

(* -- textual round-trip -------------------------------------------------- *)

let test_parse_roundtrip_kernels () =
  (* print -> parse -> verify -> print reaches a fixpoint, and the reparsed
     kernel behaves identically in the execution engine *)
  List.iter
    (fun name ->
      let m = Models.Registry.model (Models.Registry.find_exn name) in
      List.iter
        (fun cfg ->
          let g = Codegen.Kernel.generate cfg m in
          let text = Ir.Printer.module_to_string g.Codegen.Kernel.modl in
          match Ir.Parser.parse_module_result text with
          | Error e -> Alcotest.failf "%s: parse failed: %s" name e
          | Ok m2 -> (
              (match Verifier.verify_module m2 with
              | [] -> ()
              | errs -> Alcotest.fail (Verifier.errors_to_string errs));
              let text2 = Ir.Printer.module_to_string m2 in
              match Ir.Parser.parse_module_result text2 with
              | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
              | Ok m3 ->
                  Alcotest.(check string)
                    (name ^ " fixpoint")
                    text2
                    (Ir.Printer.module_to_string m3)))
        [ Codegen.Config.baseline; Codegen.Config.mlir ~width:8 ])
    [ "LuoRudy91"; "MitchellSchaeffer"; "Courtemanche" ]

let test_parsed_kernel_executes () =
  let m = Models.Registry.model (Models.Registry.find_exn "HodgkinHuxley") in
  let g = Codegen.Kernel.generate (Codegen.Config.mlir ~width:4) m in
  let text = Ir.Printer.module_to_string g.Codegen.Kernel.modl in
  let m2 = Ir.Parser.parse_module text in
  (* run both modules' lut_init over the same table and compare *)
  let reg = Exec.Rt.create_registry () in
  Runtime.Lut.register reg;
  let run modl =
    let plan = List.hd g.Codegen.Kernel.lut_plans in
    let spec = plan.Easyml.Lut_cones.spec in
    let buf =
      Exec.Rt.buffer
        (Easyml.Model.lut_rows spec * Easyml.Lut_cones.n_columns plan)
    in
    ignore
      (Exec.Batched.run ~externs:reg modl
         (Codegen.Kernel.lut_init_name spec)
         [| Exec.Rt.M buf; Exec.Rt.F 0.01 |]);
    buf
  in
  let b1 = run g.Codegen.Kernel.modl and b2 = run m2 in
  for i = 0 to Float.Array.length b1 - 1 do
    if not (Helpers.same_float (Float.Array.get b1 i) (Float.Array.get b2 i))
    then Alcotest.failf "parsed kernel diverges at table entry %d" i
  done

let test_parser_errors () =
  let bad ?(says = "") text =
    match Ir.Parser.parse_module_result text with
    | Error e ->
        if not (String.starts_with ~prefix:"line " e && Helpers.contains e says)
        then Alcotest.failf "%S: error %S does not name the line and %S" text e says
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | exception ex ->
        Alcotest.failf "%S: raised %s" text (Printexc.to_string ex)
  in
  bad "not a module";
  bad "module @m {\nfunc.func @f() -> () {\n%1 = arith.bogus : f64\n}\n}";
  bad "module @m {\nfunc.func @f() -> () {\nfunc.return %99\n}\n}";
  (* use before def *)
  bad "module @m {";
  (* unterminated; then one line in the body of f(%0 : f64) *)
  let body ?says lines =
    bad ?says
      ("module @m {\nfunc.func @f(%0 : f64, %9 : i64) -> () {\n"
      ^ String.concat "\n" lines ^ "\nfunc.return : () -> ()\n}\n}")
  in
  (* result names and result types disagree *)
  body [ "%1, %2 = arith.addf %0, %0 : (f64, f64) -> f64" ];
  body [ "func.return %0 : f64" ];
  body [ "%1 = func.call @g %0 : (f64) -> ()" ];
  body [ "%5 = scf.for %1 = %9 to %9 step %9 {"; "scf.yield"; "}" ];
  (* literals out of range or malformed *)
  body [ "func.return %99999999999999999999 : (f64) -> ()" ];
  body [ "%1 = arith.constant 99999999999999999999999 : i64" ];
  body [ "%1 = arith.constant 1e : f64" ];
  body [ "%1 = vector.broadcast %0 : (f64) -> vector<99999999999999999999xf64>" ];
  body [ "%1 = vector.broadcast %0 : (f64) -> vector<0xf64>" ];
  (* forms the IR does not hold *)
  List.iter
    (fun line -> body ~says:"unknown operation" [ line ])
    [
      "%1 = arith.remf %0, %0 : (f64, f64) -> f64";
      "%1 = arith.fptosi %0 : (f64) -> i64";
      "%1 = arith.cmpi lt, %9, %9 : i64";
      "%1 = memref.alloc %9 : (i64) -> memref<?xf64>";
      "%1 = vector.extract %0 [0] : vector<4xf64>";
      "%1 = arith.xori %0, %0 : (f64, f64) -> f64";
      "scf.if %0 {";
    ];
  body [ "%1 = arith.constant true : i1" ]

let roundtrip_suite =
  [
    Alcotest.test_case "textual round-trip on kernels" `Slow
      test_parse_roundtrip_kernels;
    Alcotest.test_case "parsed kernel executes identically" `Quick
      test_parsed_kernel_executes;
    Alcotest.test_case "parser rejects malformed IR" `Quick test_parser_errors;
  ]

let suite = suite @ roundtrip_suite

(* print -> parse -> execute equivalence on random lowered expressions *)
let parse_print_execute =
  Helpers.qtest ~count:150 "print/parse preserves execution"
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
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
      let m2 = Ir.Parser.parse_module (Ir.Printer.module_to_string m) in
      let run modl =
        match Exec.Batched.run modl "f" [| Exec.Rt.F 0.75; Exec.Rt.F (-1.25) |] with
        | [| Exec.Rt.F v |] -> v
        | _ -> Float.nan
      in
      Helpers.same_float (run m) (run m2))

let suite = suite @ [ parse_print_execute ]
