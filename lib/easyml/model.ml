(** Analyzed ionic-model representation.

    This is the output of {!Sema.analyze}: markups resolved, parameters
    folded, conditionals if-converted, definitions topologically ordered and
    single-assignment.  Code generators consume this form. *)

type integ = FE | RK2 | RK4 | RushLarsen | Sundnes | MarkovBE

let integ_of_string = function
  | "fe" -> Some FE
  | "rk2" -> Some RK2
  | "rk4" -> Some RK4
  | "rush_larsen" -> Some RushLarsen
  | "sundnes" -> Some Sundnes
  | "markov_be" -> Some MarkovBE
  | _ -> None

let integ_name = function
  | FE -> "fe"
  | RK2 -> "rk2"
  | RK4 -> "rk4"
  | RushLarsen -> "rush_larsen"
  | Sundnes -> "sundnes"
  | MarkovBE -> "markov_be"

type state_var = {
  sv_name : string;
  sv_init : float;
  sv_diff : Ast.expr;
      (** derivative expression; references states, externals, assigns, dt, t *)
  sv_method : integ;
  sv_affine : Linearity.t option;
      (** affine decomposition [diff = a + b*sv], present iff the method
          requires it (Rush–Larsen / Sundnes) and extraction succeeded *)
}

type ext_var = {
  ext_name : string;
  ext_init : float;
  ext_assigned : bool;  (** true for outputs such as Iion *)
}

type lut_spec = {
  lut_var : string;
  lut_lo : float;
  lut_hi : float;
  lut_step : float;
}

let lut_rows (l : lut_spec) : int =
  int_of_float (Float.round ((l.lut_hi -. l.lut_lo) /. l.lut_step)) + 1

type t = {
  name : string;
  params : (string * float) list;  (** folded parameter values, for reporting *)
  externals : ext_var list;
  states : state_var list;
  assigns : (string * Ast.expr) list;
      (** intermediate and output definitions in topological order *)
  luts : lut_spec list;
  warnings : Diag.t list;
      (** analysis diagnostics (silently-degraded methods, defaulted inits,
          unused parameters) with source locations and severities *)
  locs : (string * Loc.t) list;
      (** best-known definition site per name (states point at their
          [diff_] equation, lookup specs at the markup) — consumed by the
          lint pass for located diagnostics *)
}

let find_loc (m : t) (name : string) : Loc.t =
  Option.value ~default:Loc.none (List.assoc_opt name m.locs)

let find_state (m : t) (name : string) : state_var option =
  List.find_opt (fun s -> String.equal s.sv_name name) m.states

let find_ext (m : t) (name : string) : ext_var option =
  List.find_opt (fun e -> String.equal e.ext_name name) m.externals

let n_states (m : t) = List.length m.states

(** Names an expression may legitimately reference besides definitions:
    implicit simulation variables. *)
let implicit_vars = [ "dt"; "t" ]

let pp ppf (m : t) =
  Fmt.pf ppf "@[<v>model %s@," m.name;
  Fmt.pf ppf "  params: %a@,"
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
    m.params;
  Fmt.pf ppf "  externals: %a@,"
    Fmt.(list ~sep:(any ", ") string)
    (List.map
       (fun e -> if e.ext_assigned then e.ext_name ^ "(out)" else e.ext_name)
       m.externals);
  List.iter
    (fun s ->
      Fmt.pf ppf "  state %s init=%g method=%s diff=%a@," s.sv_name s.sv_init
        (integ_name s.sv_method) Ast.pp_expr s.sv_diff)
    m.states;
  List.iter (fun (x, e) -> Fmt.pf ppf "  %s = %a@," x Ast.pp_expr e) m.assigns;
  List.iter
    (fun l ->
      Fmt.pf ppf "  lookup %s in [%g, %g] step %g (%d rows)@," l.lut_var
        l.lut_lo l.lut_hi l.lut_step (lut_rows l))
    m.luts;
  Fmt.pf ppf "@]"
