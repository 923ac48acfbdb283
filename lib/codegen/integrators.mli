(** Integration-method lowering (paper §3.3.2): each method is built as an
    *update expression* — an EasyML AST computing the state's next value —
    so one lowering path serves all methods, the LUT planner sees
    integrator coefficients (Rush-Larsen exponentials are tabulated), and
    every method is testable against the reference evaluator. *)

val rl_eps : float
(** |b| threshold under which Rush-Larsen degrades to forward Euler. *)

val markov_be_refinements : int
(** Newton refinement steps of the implicit markov_be update. *)

val forward_euler : Easyml.Model.state_var -> Easyml.Ast.expr
val rk2 : Easyml.Model.state_var -> Easyml.Ast.expr
val rk4 : Easyml.Model.state_var -> Easyml.Ast.expr
val rush_larsen : Easyml.Model.state_var -> Easyml.Ast.expr
val sundnes : Easyml.Model.state_var -> Easyml.Ast.expr
val markov_be : Easyml.Model.state_var -> Easyml.Ast.expr

val rush_larsen_update :
  a:Easyml.Ast.expr ->
  b:Easyml.Ast.expr ->
  y:Easyml.Ast.expr ->
  h:Easyml.Ast.expr ->
  Easyml.Ast.expr
(** The exact exponential update for an affine derivative, guarded at
    [|b| < rl_eps]. *)

val update_expr : Easyml.Model.state_var -> Easyml.Ast.expr
(** The (folded) update expression under the state's declared method. *)
