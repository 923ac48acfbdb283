(** Abstract syntax of the EasyML ionic-model DSL.

    EasyML (the openCARP markup language) is not Turing complete: it has no
    loops, only straight-line variable definitions, conditional statements,
    and markup annotations that steer code generation.  Variables named
    [diff_X] define the time derivative of state variable [X]; [X_init]
    defines its initial value.  Markup statements such as [.external()],
    [.param()], [.lookup(lo,hi,step)] and [.method(rk2)] attach properties to
    the most recently named variable. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Neg | Not

type expr =
  | Num of float
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list
  | Ternary of expr * expr * expr  (** [cond ? e1 : e2] *)

(** Markup annotations, attached to a variable. *)
type markup =
  | External  (** value lives outside the cell state (e.g. Vm, Iion) *)
  | Nodal  (** one value per mesh node; informational in this port *)
  | Regional  (** one value per region; informational in this port *)
  | Param  (** model parameter, compile-time constant by default *)
  | Lookup of float * float * float  (** [.lookup(lo, hi, step)] *)
  | Method of string  (** integration method name, e.g. [.method(rk2)] *)
  | Units of string  (** unit annotation; informational *)
  | Trace  (** request tracing of the variable; informational *)
  | Store  (** persist the variable in the state even if not a diff var *)

type stmt =
  | Decl of Loc.t * string  (** bare declaration [x;] *)
  | Assign of Loc.t * string * expr  (** [x = e;] *)
  | MarkupOn of Loc.t * string * markup  (** markup applied to a variable *)
  | If of Loc.t * (expr * stmt list) list * stmt list
      (** [if/elif/else]; branches carry their guard, last list is [else] *)

type program = stmt list

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let unop_name = function Neg -> "-" | Not -> "!"

(* Precedence levels used by both the parser and the printer so that
   printed output re-parses to the same tree. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6

let rec pp_expr_prec prec ppf e =
  match e with
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e16 then
        Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%.17g" f
  | Var s -> Fmt.string ppf s
  | Unary (op, e) -> Fmt.pf ppf "%s%a" (unop_name op) (pp_expr_prec 8) e
  | Binary (op, a, b) ->
      let p = binop_prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_expr_prec p) a (binop_name op)
          (pp_expr_prec (p + 1)) b
      in
      if p < prec then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Call (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_expr_prec 0)) args
  | Ternary (c, t, f) ->
      let body ppf () =
        Fmt.pf ppf "%a ? %a : %a" (pp_expr_prec 1) c (pp_expr_prec 0) t
          (pp_expr_prec 0) f
      in
      if prec > 0 then Fmt.pf ppf "(%a)" body () else body ppf ()

let pp_expr = pp_expr_prec 0
let expr_to_string e = Fmt.str "%a" pp_expr e

let pp_markup ppf = function
  | External -> Fmt.string ppf ".external()"
  | Nodal -> Fmt.string ppf ".nodal()"
  | Regional -> Fmt.string ppf ".regional()"
  | Param -> Fmt.string ppf ".param()"
  | Lookup (lo, hi, step) -> Fmt.pf ppf ".lookup(%g,%g,%g)" lo hi step
  | Method m -> Fmt.pf ppf ".method(%s)" m
  | Units u -> Fmt.pf ppf ".units(%s)" u
  | Trace -> Fmt.string ppf ".trace()"
  | Store -> Fmt.string ppf ".store()"

let rec pp_stmt ppf = function
  | Decl (_, x) -> Fmt.pf ppf "%s;" x
  | Assign (_, x, e) -> Fmt.pf ppf "%s = %a;" x pp_expr e
  | MarkupOn (_, x, m) -> Fmt.pf ppf "%s; %a;" x pp_markup m
  | If (_, branches, els) ->
      List.iteri
        (fun i (c, body) ->
          Fmt.pf ppf "%s (%a) {@[<v 2>@,%a@]@,} " (if i = 0 then "if" else "elif")
            pp_expr c
            (Fmt.list ~sep:Fmt.cut pp_stmt)
            body)
        branches;
      if els <> [] then
        Fmt.pf ppf "else {@[<v 2>@,%a@]@,}" (Fmt.list ~sep:Fmt.cut pp_stmt) els

(** Free variables of an expression, in first-occurrence order. *)
let free_vars (e : expr) : string list =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Num _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
    | Unary (_, e) -> go e
    | Binary (_, a, b) ->
        go a;
        go b
    | Call (_, args) -> List.iter go args
    | Ternary (a, b, c) ->
        go a;
        go b;
        go c
  in
  go e;
  List.rev !acc

(** Substitute [Var x] by [by] everywhere in [e]. *)
let rec subst ~(x : string) ~(by : expr) (e : expr) : expr =
  match e with
  | Num _ -> e
  | Var v -> if String.equal v x then by else e
  | Unary (op, a) -> Unary (op, subst ~x ~by a)
  | Binary (op, a, b) -> Binary (op, subst ~x ~by a, subst ~x ~by b)
  | Call (f, args) -> Call (f, List.map (subst ~x ~by) args)
  | Ternary (a, b, c) -> Ternary (subst ~x ~by a, subst ~x ~by b, subst ~x ~by c)

(** Structural equality (floats compared bitwise via [Float.equal]). *)
let rec equal_expr (a : expr) (b : expr) : bool =
  match (a, b) with
  | Num x, Num y -> Float.equal x y
  | Var x, Var y -> String.equal x y
  | Unary (o1, e1), Unary (o2, e2) -> o1 = o2 && equal_expr e1 e2
  | Binary (o1, a1, b1), Binary (o2, a2, b2) ->
      o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | Call (f1, l1), Call (f2, l2) ->
      String.equal f1 f2
      && List.length l1 = List.length l2
      && List.for_all2 equal_expr l1 l2
  | Ternary (a1, b1, c1), Ternary (a2, b2, c2) ->
      equal_expr a1 a2 && equal_expr b1 b2 && equal_expr c1 c2
  | _ -> false

(** Number of nodes, used as a crude size metric by tests and heuristics. *)
let rec size (e : expr) : int =
  match e with
  | Num _ | Var _ -> 1
  | Unary (_, a) -> 1 + size a
  | Binary (_, a, b) -> 1 + size a + size b
  | Call (_, args) -> 1 + List.fold_left (fun n a -> n + size a) 0 args
  | Ternary (a, b, c) -> 1 + size a + size b + size c
