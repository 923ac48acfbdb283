(** Semantic analysis: EasyML program → {!Model.t}.

    Responsibilities:
    - resolve markups (external / param / lookup / method / ...);
    - run the compile-time preprocessor (parameter folding, §3.2 of the
      paper);
    - if-convert conditional statements into ternary merges (required for
      SIMD-friendly straight-line kernels);
    - recognize [diff_X] / [X_init] definitions and build state variables;
    - inline intermediate definitions into derivative expressions so that
      integration methods can re-evaluate f with a substituted state (the
      rk2 / sundnes / markov_be lowering substitutes the state variable);
    - extract affine decompositions for Rush–Larsen / Sundnes gates, falling
      back to forward Euler with a warning when the derivative is not affine
      (openCARP behaves the same way);
    - topologically order the remaining output definitions and prune the
      ones made dead by inlining. *)

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Pass A: collect markups and raw definitions, if-converting          *)
(* ------------------------------------------------------------------ *)

type raw = {
  mutable markups : (Ast.markup * Loc.t) list SMap.t;
  mutable defs : (string * Ast.expr * Loc.t) list;  (* reverse program order *)
  mutable def_names : SSet.t;
  mutable decls : SSet.t;
}

let add_markup raw v m loc =
  let cur = Option.value ~default:[] (SMap.find_opt v raw.markups) in
  raw.markups <- SMap.add v ((m, loc) :: cur) raw.markups

let add_def raw v e loc =
  if SSet.mem v raw.def_names then
    errf "variable %s assigned more than once (EasyML is single-assignment)" v;
  raw.def_names <- SSet.add v raw.def_names;
  raw.defs <- (v, e, loc) :: raw.defs

(* Substitute the bindings accumulated along a branch. *)
let subst_env (env : Ast.expr SMap.t) (e : Ast.expr) : Ast.expr =
  let rec go e =
    match e with
    | Ast.Num _ -> e
    | Ast.Var v -> ( match SMap.find_opt v env with Some b -> b | None -> e)
    | Ast.Unary (op, a) -> Ast.Unary (op, go a)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, go a, go b)
    | Ast.Call (f, args) -> Ast.Call (f, List.map go args)
    | Ast.Ternary (a, b, c) -> Ast.Ternary (go a, go b, go c)
  in
  go e

(* Symbolically execute a branch body starting from the enclosing bindings.
   Returns the final environment together with the set of variables the
   branch itself assigned (directly or through a nested conditional). *)
let rec exec_branch (outer : Ast.expr SMap.t) (body : Ast.stmt list) :
    Ast.expr SMap.t * SSet.t =
  List.fold_left
    (fun (env, assigned) stmt ->
      match stmt with
      | Ast.Assign (_, x, e) -> (SMap.add x (subst_env env e) env, SSet.add x assigned)
      | Ast.If (_, branches, els) ->
          let merged = if_to_bindings env branches els in
          ( SMap.union (fun _ _ v -> Some v) env merged,
            SMap.fold (fun k _ s -> SSet.add k s) merged assigned )
      | Ast.Decl _ -> (env, assigned)
      | Ast.MarkupOn (loc, _, _) ->
          errf "markup inside a conditional at %a is not supported" Loc.pp loc)
    (outer, SSet.empty) body

(* Merge an if/elif/else into one ternary binding per assigned variable.
   Every branch (including else) must assign the variable: EasyML is
   single-assignment, so a partial conditional definition has no
   fall-through value. *)
and if_to_bindings (outer : Ast.expr SMap.t)
    (branches : (Ast.expr * Ast.stmt list) list) (els : Ast.stmt list) :
    Ast.expr SMap.t =
  let branch_envs =
    List.map
      (fun (c, body) -> (subst_env outer c, exec_branch outer body))
      branches
  in
  let else_env, else_assigned = exec_branch outer els in
  let assigned =
    List.fold_left
      (fun acc (_, (_, a)) -> SSet.union a acc)
      else_assigned branch_envs
  in
  SSet.fold
    (fun x acc ->
      let get env =
        match SMap.find_opt x env with
        | Some e -> e
        | None ->
            errf
              "conditional definition of %s must assign it in every branch \
               (including else)"
              x
      in
      let else_val = get else_env in
      let merged =
        List.fold_right
          (fun (c, (env, _)) tail -> Ast.Ternary (c, get env, tail))
          branch_envs else_val
      in
      SMap.add x merged acc)
    assigned SMap.empty

let collect (prog : Ast.program) : raw =
  let raw =
    { markups = SMap.empty; defs = []; def_names = SSet.empty; decls = SSet.empty }
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Decl (_, x) -> raw.decls <- SSet.add x raw.decls
      | Ast.Assign (loc, x, e) -> add_def raw x e loc
      | Ast.MarkupOn (loc, x, m) -> add_markup raw x m loc
      | Ast.If (loc, branches, els) ->
          let bindings = if_to_bindings SMap.empty branches els in
          SMap.iter (fun x e -> add_def raw x e loc) bindings)
    prog;
  raw.defs <- List.rev raw.defs;
  raw

(* ------------------------------------------------------------------ *)
(* Pass B: classification and model construction                       *)
(* ------------------------------------------------------------------ *)

let diff_prefix = "diff_"
let init_suffix = "_init"

let diff_target (name : string) : string option =
  if
    String.length name > String.length diff_prefix
    && String.sub name 0 (String.length diff_prefix) = diff_prefix
  then Some (String.sub name 5 (String.length name - 5))
  else None

let init_target (name : string) : string option =
  let n = String.length name and s = String.length init_suffix in
  if n > s && String.sub name (n - s) s = init_suffix then
    Some (String.sub name 0 (n - s))
  else None

let has_markup raw v m =
  match SMap.find_opt v raw.markups with
  | Some ms -> List.exists (fun (m', _) -> m' = m) ms
  | None -> false

let method_of raw v =
  match SMap.find_opt v raw.markups with
  | None -> None
  | Some ms ->
      List.find_map (function Ast.Method m, _ -> Some m | _ -> None) ms

(** Location of the first markup on [v] satisfying [pred], for
    diagnostics pointing at the markup site. *)
let markup_loc raw v pred : Loc.t =
  match SMap.find_opt v raw.markups with
  | None -> Loc.none
  | Some ms ->
      Option.value ~default:Loc.none
        (List.find_map (fun (m, loc) -> if pred m then Some loc else None) ms)

(* Check that every call is to a known builtin with the right arity. *)
let check_calls (where : string) (e : Ast.expr) : unit =
  let rec go = function
    | Ast.Num _ | Ast.Var _ -> ()
    | Ast.Unary (_, a) -> go a
    | Ast.Binary (_, a, b) ->
        go a;
        go b
    | Ast.Ternary (a, b, c) ->
        go a;
        go b;
        go c
    | Ast.Call (f, args) -> (
        (match Builtins.find f with
        | None -> errf "unknown function %s in definition of %s" f where
        | Some b ->
            if List.length args <> b.arity then
              errf "function %s expects %d argument(s), got %d (in %s)" f
                b.arity (List.length args) where);
        List.iter go args)
  in
  go e

let analyze ~(name : string) (prog : Ast.program) : Model.t =
  let raw = collect prog in
  let warnings = ref [] in
  let warn ?sev ?loc ~code fmt =
    Fmt.kstr
      (fun s -> warnings := Diag.make ?sev ?loc ~code s :: !warnings)
      fmt
  in
  let def_loc =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (x, _, loc) ->
        if not (Hashtbl.mem tbl x) then Hashtbl.add tbl x loc)
      raw.defs;
    fun x -> Option.value ~default:Loc.none (Hashtbl.find_opt tbl x)
  in
  (* -- parameters ------------------------------------------------- *)
  let param_tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let is_param v = has_markup raw v Ast.Param in
  List.iter
    (fun (x, e, _) ->
      if is_param x then
        match Fold.fold_expr param_tbl e with
        | Ast.Num f -> Hashtbl.replace param_tbl x f
        | _ ->
            errf "parameter %s is not a compile-time constant (got %s)" x
              (Ast.expr_to_string e))
    raw.defs;
  SMap.iter
    (fun v ms ->
      if List.exists (fun (m, _) -> m = Ast.Param) ms
         && not (Hashtbl.mem param_tbl v)
      then errf "parameter %s has no value" v)
    raw.markups;
  (* dead .param()s: a parameter no other definition ever references is
     compile-time noise — surface it for [limpetmlir check].  Scan in
     program order so diagnostics are deterministic. *)
  List.iter
    (fun (p, _, loc) ->
      if is_param p then
        let used =
          List.exists
            (fun (x, e, _) -> x <> p && List.mem p (Ast.free_vars e))
            raw.defs
        in
        if not used then
          warn ~sev:Diag.Info ~loc ~code:"unused-param"
            "parameter %s is never used" p)
    raw.defs;
  let params =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) param_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* preprocessor: fold parameters (and literal arithmetic) everywhere *)
  let prep e = Fold.fold_expr param_tbl e in
  (* -- split definitions ------------------------------------------ *)
  let inits : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let diffs : (string, Ast.expr) Hashtbl.t = Hashtbl.create 16 in
  let assigns = ref [] in
  List.iter
    (fun (x, e, _) ->
      if is_param x then ()
      else
        match init_target x with
        | Some tgt -> (
            match Fold.fold_expr param_tbl e with
            | Ast.Num f -> Hashtbl.replace inits tgt f
            | _ ->
                errf "%s must be a compile-time constant (got %s)" x
                  (Ast.expr_to_string e))
        | None -> (
            match diff_target x with
            | Some tgt -> Hashtbl.replace diffs tgt (prep e)
            | None -> assigns := (x, prep e) :: !assigns))
    raw.defs;
  let assigns = List.rev !assigns in
  (* EasyML lets expressions reference [diff_X] by name (e.g. calcium-buffer
     corrections in Nygren-style models); substitute the derivative
     definitions in, with a cycle guard. *)
  let resolve_diff_refs (top : string) (e : Ast.expr) : Ast.expr =
    let rec go visiting e =
      match e with
      | Ast.Num _ -> e
      | Ast.Var v -> (
          match diff_target v with
          | Some tgt when Hashtbl.mem diffs tgt ->
              if SSet.mem v visiting then
                errf "cyclic reference to %s in definition of %s" v top
              else go (SSet.add v visiting) (Hashtbl.find diffs tgt)
          | _ -> e)
      | Ast.Unary (op, a) -> Ast.Unary (op, go visiting a)
      | Ast.Binary (op, a, b) -> Ast.Binary (op, go visiting a, go visiting b)
      | Ast.Call (f, args) -> Ast.Call (f, List.map (go visiting) args)
      | Ast.Ternary (a, b, c) ->
          Ast.Ternary (go visiting a, go visiting b, go visiting c)
    in
    go SSet.empty e
  in
  let assigns = List.map (fun (x, e) -> (x, resolve_diff_refs x e)) assigns in
  Hashtbl.iter
    (fun x e -> Hashtbl.replace diffs x (resolve_diff_refs ("diff_" ^ x) e))
    (Hashtbl.copy diffs);
  let assign_map =
    List.fold_left (fun m (x, e) -> SMap.add x e m) SMap.empty assigns
  in
  (* -- externals --------------------------------------------------- *)
  let externals =
    SMap.fold
      (fun v ms acc ->
        if List.exists (fun (m, _) -> m = Ast.External) ms then
          {
            Model.ext_name = v;
            ext_init = Option.value ~default:0.0 (Hashtbl.find_opt inits v);
            ext_assigned = SMap.mem v assign_map;
          }
          :: acc
        else acc)
      raw.markups []
    |> List.sort (fun a b -> String.compare a.Model.ext_name b.Model.ext_name)
  in
  let is_external v = List.exists (fun e -> e.Model.ext_name = v) externals in
  (* -- states ------------------------------------------------------ *)
  let state_names =
    Hashtbl.fold (fun k _ acc -> k :: acc) diffs [] |> List.sort String.compare
  in
  List.iter
    (fun s ->
      if is_external s then
        errf "%s is declared external but has a diff_ equation" s;
      if SMap.mem s assign_map then
        errf "state variable %s cannot also be assigned directly" s)
    state_names;
  let is_state v = Hashtbl.mem diffs v in
  (* -- reference checking ------------------------------------------ *)
  let known v =
    is_state v || is_external v
    || SMap.mem v assign_map
    || List.mem v Model.implicit_vars
  in
  let check_refs where e =
    check_calls where e;
    List.iter
      (fun v ->
        if not (known v) then errf "undefined variable %s referenced by %s" v where)
      (Ast.free_vars e)
  in
  List.iter (fun (x, e) -> check_refs x e) assigns;
  Hashtbl.iter (fun x e -> check_refs ("diff_" ^ x) e) diffs;
  (* -- topological order of assigns, cycle detection ---------------- *)
  let order = ref [] in
  let mark : (string, [ `Visiting | `Done ]) Hashtbl.t = Hashtbl.create 16 in
  let rec visit v =
    match Hashtbl.find_opt mark v with
    | Some `Done -> ()
    | Some `Visiting -> errf "cyclic definition involving %s" v
    | None -> (
        match SMap.find_opt v assign_map with
        | None -> () (* state, external, implicit: a source *)
        | Some e ->
            Hashtbl.replace mark v `Visiting;
            List.iter visit (Ast.free_vars e);
            Hashtbl.replace mark v `Done;
            order := (v, e) :: !order)
  in
  List.iter (fun (x, _) -> visit x) assigns;
  let sorted_assigns = List.rev !order in
  (* -- inline intermediates into derivative expressions ------------- *)
  let inline_memo : (string, Ast.expr) Hashtbl.t = Hashtbl.create 16 in
  let rec inline (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Num _ -> e
    | Ast.Var v -> (
        match Hashtbl.find_opt inline_memo v with
        | Some e' -> e'
        | None -> (
            match SMap.find_opt v assign_map with
            | Some def ->
                let e' = inline def in
                Hashtbl.replace inline_memo v e';
                e'
            | None -> e))
    | Ast.Unary (op, a) -> Ast.Unary (op, inline a)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, inline a, inline b)
    | Ast.Call (f, args) -> Ast.Call (f, List.map inline args)
    | Ast.Ternary (a, b, c) -> Ast.Ternary (inline a, inline b, inline c)
  in
  let states =
    List.map
      (fun sname ->
        let diff = inline (Hashtbl.find diffs sname) in
        let init =
          match Hashtbl.find_opt inits sname with
          | Some f -> f
          | None ->
              warn ~loc:(def_loc (diff_prefix ^ sname)) ~code:"missing-init"
                "state %s has no %s%s definition, defaulting to 0" sname
                sname init_suffix;
              0.0
        in
        let meth =
          match method_of raw sname with
          | None -> Model.FE
          | Some m -> (
              match Model.integ_of_string m with
              | Some i -> i
              | None -> errf "unknown integration method %s on %s" m sname)
        in
        let affine, meth =
          match meth with
          | Model.RushLarsen | Model.Sundnes -> (
              match Linearity.affine ~y:sname diff with
              | Some dec -> (Some dec, meth)
              | None ->
                  warn
                    ~loc:
                      (markup_loc raw sname (function
                        | Ast.Method _ -> true
                        | _ -> false))
                    ~code:"non-affine-gate"
                    "diff_%s is not affine in %s; falling back to forward \
                     Euler for .method(%s)"
                    sname sname (Model.integ_name meth);
                  (None, Model.FE))
          | _ -> (None, meth)
        in
        { Model.sv_name = sname; sv_init = init; sv_diff = diff; sv_method = meth;
          sv_affine = affine })
      state_names
  in
  (* -- prune assigns not needed by outputs/traces ------------------- *)
  let roots =
    List.filter_map
      (fun e -> if e.Model.ext_assigned then Some e.Model.ext_name else None)
      externals
    @ SMap.fold
        (fun v ms acc ->
          if List.exists (fun (m, _) -> m = Ast.Trace || m = Ast.Store) ms
          then v :: acc
          else acc)
        raw.markups []
  in
  let live = ref SSet.empty in
  let rec reach v =
    if (not (SSet.mem v !live)) && SMap.mem v assign_map then begin
      live := SSet.add v !live;
      List.iter reach (Ast.free_vars (SMap.find v assign_map))
    end
  in
  List.iter reach roots;
  let assigns = List.filter (fun (x, _) -> SSet.mem x !live) sorted_assigns in
  (* -- lookup tables ------------------------------------------------ *)
  let luts =
    SMap.fold
      (fun v ms acc ->
        List.filter_map
          (function
            | Ast.Lookup (lo, hi, step), _ ->
                if step <= 0.0 || hi <= lo then
                  errf "invalid lookup bounds on %s: [%g, %g] step %g" v lo hi
                    step;
                if not (is_external v || is_state v) then
                  errf "lookup variable %s must be a state or external" v;
                Some { Model.lut_var = v; lut_lo = lo; lut_hi = hi; lut_step = step }
            | _ -> None)
          ms
        @ acc)
      raw.markups []
  in
  (* externals with no markup at all referenced anywhere? Undeclared names
     were already rejected by check_refs. *)
  (* definition sites for the lint pass: states point at their diff_
     equation, lookup specs at the .lookup markup ("lookup:" prefix),
     everything else at its first definition *)
  let locs =
    List.map
      (fun s ->
        (s.Model.sv_name, def_loc (diff_prefix ^ s.Model.sv_name)))
      states
    @ List.map
        (fun (l : Model.lut_spec) ->
          ( "lookup:" ^ l.Model.lut_var,
            markup_loc raw l.Model.lut_var (function
              | Ast.Lookup _ -> true
              | _ -> false) ))
        luts
    @ List.map
        (fun (e : Model.ext_var) ->
          ( e.Model.ext_name,
            markup_loc raw e.Model.ext_name (function
              | Ast.External -> true
              | _ -> false) ))
        externals
    @ List.map (fun (p, _) -> (p, def_loc p)) params
  in
  {
    Model.name;
    params;
    externals;
    states;
    assigns;
    luts;
    warnings = List.rev !warnings;
    locs;
  }

(** Parse + analyze in one step. *)
let analyze_source ~name (src : string) : Model.t =
  match Parser.parse src with
  | Ok prog -> analyze ~name prog
  | Error msg -> raise (Error msg)

let analyze_result ~name (src : string) : (Model.t, string) result =
  match analyze_source ~name src with
  | m -> Ok m
  | exception Error msg -> Error msg
