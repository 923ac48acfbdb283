(* Frontend tests: lexer, parser, semantic analysis. *)

open Easyml

let tokens_of src =
  List.map (fun (t : Token.spanned) -> t.tok) (Lexer.tokenize src)

(* -- lexer ----------------------------------------------------------- *)

let test_lex_basic () =
  Alcotest.(check int) "token count" 7
    (List.length (tokens_of "x = 1.5 + y;"));
  (match tokens_of "3.25" with
  | [ Token.NUMBER f; Token.EOF ] -> Alcotest.(check (float 0.0)) "value" 3.25 f
  | _ -> Alcotest.fail "expected number");
  match tokens_of "1e-3" with
  | [ Token.NUMBER f; Token.EOF ] -> Alcotest.(check (float 0.0)) "exp" 0.001 f
  | _ -> Alcotest.fail "expected exponent literal"

let test_lex_comments () =
  Alcotest.(check int) "hash comment" 1
    (List.length (tokens_of "# a comment\n"));
  Alcotest.(check int) "line comment" 2 (List.length (tokens_of "x // c\n"));
  Alcotest.(check int) "block comment" 2 (List.length (tokens_of "/* c \n c */ x"))

let test_lex_operators () =
  match tokens_of "<= >= == != && || ? :" with
  | [ Token.LE; GE; EQEQ; NEQ; ANDAND; OROR; QUESTION; COLON; EOF ] -> ()
  | _ -> Alcotest.fail "operator tokens"

let test_lex_errors () =
  Alcotest.check_raises "unterminated block comment"
    (Lexer.Error (Loc.make ~line:1 ~col:1, "unterminated block comment"))
    (fun () -> ignore (Lexer.tokenize "/* never closed"));
  (match Lexer.tokenize "a $ b" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lexer error on '$'");
  match Lexer.tokenize "x & y" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lexer error on single '&'"

(* -- parser ---------------------------------------------------------- *)

let parse_expr_of (src : string) : Ast.expr =
  match Parser.parse_program ("tmp = " ^ src ^ ";") with
  | [ Ast.Assign (_, _, e) ] -> e
  | _ -> Alcotest.fail "expected a single assignment"

let test_precedence () =
  let e = parse_expr_of "1 + 2 * 3" in
  (match e with
  | Ast.Binary (Ast.Add, Ast.Num 1.0, Ast.Binary (Ast.Mul, Ast.Num 2.0, Ast.Num 3.0))
    ->
      ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  let e = parse_expr_of "a < b + 1 ? -c : d / e" in
  match e with
  | Ast.Ternary (Ast.Binary (Ast.Lt, _, _), Ast.Unary (Ast.Neg, _), Ast.Binary (Ast.Div, _, _))
    ->
      ()
  | _ -> Alcotest.fail "ternary / comparison structure"

let test_parse_markups () =
  match
    Parser.parse_program
      "Vm; .external(); .lookup(-100, 100, 0.05); u; .method(rk2);"
  with
  | [
      Ast.Decl (_, "Vm");
      Ast.MarkupOn (_, "Vm", Ast.External);
      Ast.MarkupOn (_, "Vm", Ast.Lookup (-100.0, 100.0, 0.05));
      Ast.Decl (_, "u");
      Ast.MarkupOn (_, "u", Ast.Method "rk2");
    ] ->
      ()
  | _ -> Alcotest.fail "markup attachment"

let test_parse_group () =
  match Parser.parse_program "group{ a = 1; b; }.param();" with
  | [
      Ast.Assign (_, "a", Ast.Num 1.0);
      Ast.MarkupOn (_, "a", Ast.Param);
      Ast.Decl (_, "b");
      Ast.MarkupOn (_, "b", Ast.Param);
    ] ->
      ()
  | _ -> Alcotest.fail "group desugaring"

let test_parse_if () =
  match Parser.parse_program "if (x < 0) { y = 1; } else { y = 2; }" with
  | [ Ast.If (_, [ (Ast.Binary (Ast.Lt, _, _), [ Ast.Assign (_, "y", _) ]) ], [ Ast.Assign (_, "y", _) ]) ]
    ->
      ()
  | _ -> Alcotest.fail "if/else structure"

let test_parse_errors () =
  let bad src =
    match Parser.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  bad "x = ;";
  bad ".external();";
  (* markup with no variable *)
  bad "x = 1";
  (* missing semicolon *)
  bad "group{ x = 1; ";
  bad "y = (1 + 2;"

(* printer output re-parses to the same tree *)
let roundtrip =
  Helpers.qtest "printer/parser round-trip"
    (Helpers.arbitrary_expr [ "x"; "y"; "z" ])
    (fun e ->
      (* negative literals print as -c and re-parse as a constant, so
         compare modulo the constant folder's normalization *)
      let norm e = Fold.fold_alist [] e in
      let printed = Ast.expr_to_string e in
      Ast.equal_expr (norm e) (norm (parse_expr_of printed)))

(* -- sema ------------------------------------------------------------ *)

let analyze src = Sema.analyze_source ~name:"t" src

let minimal =
  {|
Vm; .external(); Iion; .external();
y; y_init = 0.25; Vm_init = -80.0;
group{ g = 2.0; e = 1.0; }.param();
diff_y = g*(e - y);
Iion = g*y*(Vm + 20.0);
|}

let test_sema_basic () =
  let m = analyze minimal in
  Alcotest.(check int) "states" 1 (List.length m.states);
  Alcotest.(check int) "externals" 2 (List.length m.externals);
  Alcotest.(check int) "params" 2 (List.length m.params);
  let sv = Option.get (Model.find_state m "y") in
  Alcotest.(check (float 0.0)) "init" 0.25 sv.sv_init;
  (* param folding: g and e replaced by literals *)
  Alcotest.(check (list string)) "diff free vars" [ "y" ]
    (Ast.free_vars sv.sv_diff);
  let ext = Option.get (Model.find_ext m "Iion") in
  Alcotest.(check bool) "Iion is output" true ext.ext_assigned;
  let vm = Option.get (Model.find_ext m "Vm") in
  Alcotest.(check bool) "Vm is input" false vm.ext_assigned;
  Alcotest.(check (float 0.0)) "Vm init" (-80.0) vm.ext_init

let test_sema_errors () =
  let bad ?(sub = "") src =
    match Sema.analyze_result ~name:"t" src with
    | Error msg ->
        if sub <> "" && not (Helpers.contains msg sub) then
          Alcotest.failf "error %S does not mention %S" msg sub
    | Ok _ -> Alcotest.failf "expected sema error for %S" src
  in
  bad ~sub:"assigned more than once" "x = 1.0; x = 2.0;";
  bad ~sub:"undefined variable" "Iion; .external(); Iion = nope + 1.0;";
  bad ~sub:"cyclic" "Iion; .external(); a = b + 1.0; b = a + 1.0; Iion = a;";
  bad ~sub:"not a compile-time constant"
    "Vm; .external(); Iion; .external(); group{ p = Vm; }.param(); Iion = p;";
  bad ~sub:"expects" "Iion; .external(); Iion = exp(1.0, 2.0);";
  bad ~sub:"unknown function" "Iion; .external(); Iion = frobnicate(1.0);";
  bad ~sub:"unknown integration method"
    "Iion; .external(); y; diff_y = 1.0 - y; y; .method(warp); Iion = y;";
  bad ~sub:"must be a state or external"
    "Iion; .external(); k = 1.0; k; .lookup(0, 1, 0.1); Iion = k;";
  bad ~sub:"invalid lookup bounds"
    "Vm; .external(); .lookup(10, 0, 0.1); Iion; .external(); Iion = Vm;"

let test_if_conversion () =
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
if (Vm < -40.0) { a = 1.0; b = Vm * 2.0; }
elif (Vm < 0.0) { a = 2.0; b = Vm * 3.0; }
else { a = 3.0; b = Vm * 4.0; }
Iion = a + b;
|}
  in
  let eval vm =
    let bindings = [ ("Vm", vm) ] in
    let assigns =
      List.fold_left
        (fun env (x, e) -> (x, Eval.eval_alist env e) :: env)
        bindings m.assigns
    in
    List.assoc "Iion" assigns
  in
  Helpers.fcheck "branch 1" (1.0 -. 100.0) (eval (-50.0));
  Helpers.fcheck "branch 2" (2.0 -. 60.0) (eval (-20.0));
  Helpers.fcheck "else" (3.0 +. 40.0) (eval 10.0)

let test_if_conversion_sequential () =
  (* later assignments in a branch see earlier ones *)
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
if (Vm < 0.0) { t = Vm + 1.0; u = t * t; } else { t = 0.0; u = 1.0; }
Iion = u;
|}
  in
  let eval vm =
    let assigns =
      List.fold_left
        (fun env (x, e) -> (x, Eval.eval_alist env e) :: env)
        [ ("Vm", vm) ] m.assigns
    in
    List.assoc "Iion" assigns
  in
  Helpers.fcheck "sequential branch" 4.0 (eval (-3.0));
  Helpers.fcheck "else" 1.0 (eval 5.0)

let test_if_partial_error () =
  match
    Sema.analyze_result ~name:"t"
      "Vm; .external(); Iion; .external(); if (Vm < 0.0) { a = 1.0; } Iion = a;"
  with
  | Error msg ->
      Alcotest.(check bool) "mentions every branch" true
        (Helpers.contains msg "every branch")
  | Ok _ -> Alcotest.fail "partial conditional must be rejected"

let test_diff_reference () =
  (* expressions may reference diff_X by name (buffer corrections) *)
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
y; y_init = 0.5;
diff_y = 1.0 - y;
Iion = Vm * 0.0 + 2.0 * diff_y;
|}
  in
  let v =
    List.fold_left
      (fun env (x, e) -> (x, Eval.eval_alist env e) :: env)
      [ ("Vm", 0.0); ("y", 0.25) ]
      m.assigns
    |> List.assoc "Iion"
  in
  Helpers.fcheck "diff reference resolved" 1.5 v

let test_dead_assign_pruned () =
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
used = Vm + 1.0;
unused = exp(Vm);
Iion = used;
|}
  in
  Alcotest.(check bool) "unused pruned" false
    (List.mem_assoc "unused" m.assigns);
  Alcotest.(check bool) "used kept" true (List.mem_assoc "used" m.assigns)

let test_rl_fallback_warning () =
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
y; y_init = 0.5;
diff_y = y*y - 1.0;
y; .method(rush_larsen);
Iion = y + Vm*0.0;
|}
  in
  let sv = Option.get (Model.find_state m "y") in
  Alcotest.(check string) "fell back to fe" "fe" (Model.integ_name sv.sv_method);
  Alcotest.(check bool) "warning emitted" true (m.warnings <> [])

let test_store_trace_keep_assigns () =
  (* .store()/.trace() keep otherwise-dead intermediate definitions *)
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
activation = 1.0/(1.0 + exp(-(Vm + 30.0)/5.0));
activation; .trace();
Iion = Vm * 0.01;
|}
  in
  Alcotest.(check bool) "traced assign survives pruning" true
    (List.mem_assoc "activation" m.assigns)

let test_caret_power () =
  (* '^' extension desugars to pow with the right precedence *)
  let m =
    analyze
      {|
Vm; .external(); Iion; .external();
Iion = 2.0 * Vm^2.0 - (-Vm)^2.0 + Vm * 0.0;
|}
  in
  let v =
    List.fold_left
      (fun env (x, e) -> (x, Eval.eval_alist env e) :: env)
      [ ("Vm", 3.0) ] m.assigns
    |> List.assoc "Iion"
  in
  (* 2*9 - 9 = 9 *)
  Helpers.fcheck "2*Vm^2 - (-Vm)^2" 9.0 v

let suite =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "markups" `Quick test_parse_markups;
    Alcotest.test_case "group" `Quick test_parse_group;
    Alcotest.test_case "if" `Quick test_parse_if;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    roundtrip;
    Alcotest.test_case "sema basic" `Quick test_sema_basic;
    Alcotest.test_case "sema errors" `Quick test_sema_errors;
    Alcotest.test_case "if conversion" `Quick test_if_conversion;
    Alcotest.test_case "if conversion sequential" `Quick
      test_if_conversion_sequential;
    Alcotest.test_case "partial if rejected" `Quick test_if_partial_error;
    Alcotest.test_case "diff_X references" `Quick test_diff_reference;
    Alcotest.test_case "dead assigns pruned" `Quick test_dead_assign_pruned;
    Alcotest.test_case "rush_larsen fallback" `Quick test_rl_fallback_warning;
    Alcotest.test_case "store/trace keep assigns" `Quick
      test_store_trace_keep_assigns;
    Alcotest.test_case "caret power extension" `Quick test_caret_power;
  ]
