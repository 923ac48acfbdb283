(* Shared helpers and generators for the test suite. *)

let fcheck = Alcotest.(check (float 1e-9))

(* Equality tolerant of NaN (NaN == NaN here) and signed zeros, used when
   comparing two evaluation paths that must agree exactly. *)
let same_float (a : float) (b : float) : bool =
  (Float.is_nan a && Float.is_nan b) || Float.equal a b

let close ?(tol = 1e-9) (a : float) (b : float) : bool =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= tol *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let check_close ?tol msg a b =
  if not (close ?tol a b) then
    Alcotest.failf "%s: %.17g vs %.17g" msg a b

(* ------------------------------------------------------------------ *)
(* Random EasyML expressions                                           *)
(* ------------------------------------------------------------------ *)

(* Expressions over the given variables; function set restricted to total
   functions on all of R so random evaluation stays meaningful.  Ternary
   guards draw on every comparison, on [&&], [||] and [!], and on
   boolean-valued ternaries, so a lowered expression can hold every op
   kind the expression lowering emits. *)
let expr_gen (vars : string list) : Easyml.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Easyml.Ast in
  let leaf =
    oneof
      [
        map (fun f -> Num f) (float_bound_inclusive 4.0);
        map (fun f -> Num (-.f)) (float_bound_inclusive 4.0);
        map (fun v -> Var v) (oneofl vars);
      ]
  in
  let rec num depth =
    if depth = 0 then leaf
    else
      let sub = num (depth - 1) in
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Binary (op, a, b))
              (oneofl [ Add; Sub; Mul ])
              sub sub );
          ( 1,
            map2
              (fun a b ->
                Binary (Div, a, Binary (Add, Call ("fabs", [ b ]), Num 1.0)))
              sub sub );
          (1, map (fun a -> Unary (Neg, a)) sub);
          (1, map (fun a -> Call ("tanh", [ a ])) sub);
          (1, map (fun a -> Call ("square", [ a ])) sub);
          (1, map (fun a -> Call ("exp", [ Call ("tanh", [ a ]) ])) sub);
          ( 1,
            map3 (fun f a b -> Call (f, [ a; b ])) (oneofl [ "min"; "max" ]) sub
              sub );
          (1, map3 (fun c a b -> Ternary (c, a, b)) (cond (depth - 1)) sub sub);
        ]
  and cond depth =
    let cmp =
      map3
        (fun op a b -> Binary (op, a, b))
        (oneofl [ Lt; Le; Gt; Ge; Eq; Ne ])
        (num depth) (num depth)
    in
    if depth = 0 then cmp
    else
      let sub = cond (depth - 1) in
      frequency
        [
          (3, cmp);
          ( 1,
            map3 (fun op a b -> Binary (op, a, b)) (oneofl [ And; Or ]) sub sub
          );
          (1, map (fun a -> Unary (Not, a)) sub);
          (1, map3 (fun c a b -> Ternary (c, a, b)) sub sub sub);
        ]
  in
  num 3

let arbitrary_expr (vars : string list) : Easyml.Ast.expr QCheck.arbitrary =
  QCheck.make ~print:Easyml.Ast.expr_to_string (expr_gen vars)

(* A random environment binding each variable to a small float. *)
let env_gen (vars : string list) : (string * float) list QCheck.Gen.t =
  let open QCheck.Gen in
  let* vals =
    flatten_l (List.map (fun _ -> float_bound_inclusive 4.0) vars)
  in
  return (List.map2 (fun v x -> (v, x -. 2.0)) vars vals)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* substring test without extra dependencies *)
let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
