(** Integration-method lowering (paper §3.3.2, "Integration methods").

    Each method is expressed as an *update expression*: an EasyML AST that
    computes the state's next value from the current states, externals, [dt]
    and [t].  Building updates as ASTs (rather than emitting IR directly)
    keeps a single expression-lowering path, lets the lookup-table planner
    see integrator coefficients (so Rush–Larsen exponentials are tabulated,
    as openCARP does), and makes every method testable against the
    reference AST evaluator. *)

open Easyml

let num f = Ast.Num f
let var x = Ast.Var x
let ( + ) a b = Ast.Binary (Ast.Add, a, b)
let ( - ) a b = Ast.Binary (Ast.Sub, a, b)
let ( * ) a b = Ast.Binary (Ast.Mul, a, b)
let ( / ) a b = Ast.Binary (Ast.Div, a, b)
let neg a = Ast.Unary (Ast.Neg, a)
let call f args = Ast.Call (f, args)
let dt = var "dt"

(* Substitute the state variable by an arbitrary expression in f: the
   "re-evaluate f at an intermediate state" step of the multi-stage
   methods (Listing 2 lines 17-26 for rk2). *)
let f_at (sv : Model.state_var) (y_expr : Ast.expr) : Ast.expr =
  Ast.subst ~x:sv.Model.sv_name ~by:y_expr sv.Model.sv_diff

(* Threshold below which the Rush–Larsen linear coefficient is considered
   zero and the update degrades to forward Euler (avoids 0/0). *)
let rl_eps = 1e-10

let forward_euler (sv : Model.state_var) : Ast.expr =
  let y = var sv.Model.sv_name in
  y + (dt * sv.sv_diff)

let rk2 (sv : Model.state_var) : Ast.expr =
  let y = var sv.Model.sv_name in
  (* midpoint method: y + dt * f(y + dt/2 * f(y)) *)
  let y_mid = y + (dt / num 2.0 * sv.sv_diff) in
  y + (dt * f_at sv y_mid)

let rk4 (sv : Model.state_var) : Ast.expr =
  let y = var sv.Model.sv_name in
  let k1 = sv.sv_diff in
  let k2 = f_at sv (y + (dt / num 2.0 * k1)) in
  let k3 = f_at sv (y + (dt / num 2.0 * k2)) in
  let k4 = f_at sv (y + (dt * k3)) in
  y + (dt / num 6.0 * (k1 + (num 2.0 * k2) + (num 2.0 * k3) + k4))

(* Exact exponential update for an affine derivative f = a + b*y:
     y' = -a/b + (y + a/b) * exp(b*dt)
   guarded against |b| ~ 0 where it degrades to forward Euler. *)
let rush_larsen_update ~(a : Ast.expr) ~(b : Ast.expr) ~(y : Ast.expr)
    ~(h : Ast.expr) : Ast.expr =
  let guard = Ast.Binary (Ast.Lt, call "fabs" [ b ], num rl_eps) in
  let fe = y + (h * (a + (b * y))) in
  let yinf = neg (a / b) in
  let expo = call "exp" [ b * h ] in
  Ast.Ternary (guard, fe, yinf + ((y - yinf) * expo))

let rush_larsen (sv : Model.state_var) : Ast.expr =
  match sv.Model.sv_affine with
  | None ->
      (* sema guarantees RL states carry a decomposition; stay safe *)
      forward_euler sv
  | Some { Linearity.a; b } ->
      rush_larsen_update ~a ~b ~y:(var sv.Model.sv_name) ~h:dt

(* Sundnes et al. 2009: second-order generalized Rush–Larsen.  Linearize f
   around the forward-half-step point ŷ = y + dt/2·f(y):
     b̂ = f'(ŷ),  â = f(ŷ) - b̂·ŷ,
   then apply the exponential update with the midpoint linearization. *)
let sundnes (sv : Model.state_var) : Ast.expr =
  let name = sv.Model.sv_name in
  let y = var name in
  let y_half = y + (dt / num 2.0 * sv.sv_diff) in
  let fprime = Deriv.diff ~wrt:name sv.sv_diff in
  let b_hat = Ast.subst ~x:name ~by:y_half fprime in
  let a_hat = f_at sv y_half - (b_hat * y_half) in
  rush_larsen_update ~a:a_hat ~b:b_hat ~y ~h:dt

(* Backward-Euler (implicit) with Newton refinement, clamped to [0, 1]
   between iterations — the method openCARP uses for Markov-chain state
   occupancies where probabilities must stay in [0, 1]. *)
let markov_be_refinements = 2

let clamp01 (e : Ast.expr) : Ast.expr =
  call "max" [ num 0.0; call "min" [ num 1.0; e ] ]

let markov_be (sv : Model.state_var) : Ast.expr =
  let name = sv.Model.sv_name in
  let y = var name in
  let fprime = Deriv.diff ~wrt:name sv.sv_diff in
  (* predictor: forward Euler, clamped *)
  let rec refine (yk : Ast.expr) (iters : int) : Ast.expr =
    if iters = 0 then yk
    else
      (* Newton step on g(z) = z - y - dt*f(z):
           z' = z - (z - y - dt*f(z)) / (1 - dt*f'(z)) *)
      let fz = Ast.subst ~x:name ~by:yk sv.sv_diff in
      let fpz = Ast.subst ~x:name ~by:yk fprime in
      let z' = yk - ((yk - y - (dt * fz)) / (num 1.0 - (dt * fpz))) in
      refine (clamp01 z') (Stdlib.( - ) iters 1)
  in
  refine (clamp01 (y + (dt * sv.sv_diff))) markov_be_refinements

(** The update expression for a state variable under its declared method. *)
let update_expr (sv : Model.state_var) : Ast.expr =
  let e =
    match sv.Model.sv_method with
    | Model.FE -> forward_euler sv
    | Model.RK2 -> rk2 sv
    | Model.RK4 -> rk4 sv
    | Model.RushLarsen -> rush_larsen sv
    | Model.Sundnes -> sundnes sv
    | Model.MarkovBE -> markov_be sv
  in
  Fold.fold_alist [] e
