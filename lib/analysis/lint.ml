(** EasyML model lint — the analysis behind [limpetmlir check].

    Combines the semantic analyzer's own diagnostics (missing inits,
    silently-degraded integration methods, dead [.param()]s) with
    model-level checks that need range reasoning:

    - {b unused-state}: a state variable that no output and no live
      state's derivative (transitively through the intermediate
      definitions) ever reads — it costs storage and bandwidth every
      step for nothing;
    - {b lookup-range}: a [.lookup(lo, hi, step)] whose variable starts
      {e outside} the table domain (error — the very first interpolation
      clamps and the table answers a question nobody asked), or whose
      one-step reachable interval (an AST-level interval evaluation
      seeded with the initial state and [dt ∈ \[0, 0.05\]]) may escape
      the domain (warning);
    - {b markov-init}: [.method(markov_be)] states are occupancies; an
      initial value outside [\[0, 1\]] breaks the integrator's
      contraction assumption.

    The AST interval evaluator reuses {!Interval.math_itv}, so model-
    and IR-level range conclusions agree by construction. *)

module A = Easyml.Ast
module M = Easyml.Model
module Diag = Easyml.Diag
module F = Itv.F

(* ------------------------------------------------------------------ *)
(* AST interval evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* EasyML booleans are numeric 0/1. *)
let itv_of_bool (b : Interval.v) : F.t =
  match b with
  | Interval.AB { cant = true; canf = true } -> F.make 0.0 1.0
  | Interval.AB { cant = true; canf = false } -> F.const 1.0
  | Interval.AB { cant = false; canf = true } -> F.const 0.0
  | _ -> F.bot

let cmp_of_binop : A.binop -> Ir.Op.cmp option = function
  | A.Lt -> Some Ir.Op.Lt
  | A.Le -> Some Ir.Op.Le
  | A.Gt -> Some Ir.Op.Gt
  | A.Ge -> Some Ir.Op.Ge
  | A.Eq -> Some Ir.Op.Eq
  | A.Ne -> Some Ir.Op.Ne
  | _ -> None

let truthiness (c : F.t) : bool * bool =
  (* (can be nonzero, can be zero); NaN is truthy *)
  if F.is_bot c then (false, false)
  else
    let can_nonzero =
      c.F.nan || (not (F.range_empty c)) && not (c.F.lo = 0.0 && c.F.hi = 0.0)
    in
    (can_nonzero, F.contains_zero c)

(** Interval of an EasyML expression under [env] (unknown names must map
    to {!Itv.F.top}). *)
let rec eval_itv (env : string -> F.t) (e : A.expr) : F.t =
  match e with
  | A.Num f -> F.const f
  | A.Var x -> env x
  | A.Unary (A.Neg, a) -> F.neg (eval_itv env a)
  | A.Unary (A.Not, a) ->
      let t, f = truthiness (eval_itv env a) in
      itv_of_bool (Interval.AB { cant = f; canf = t })
  | A.Binary (op, a, b) -> (
      let va = eval_itv env a and vb = eval_itv env b in
      match op with
      | A.Add -> F.add va vb
      | A.Sub -> F.sub va vb
      | A.Mul -> F.mul va vb
      | A.Div -> F.div va vb
      | A.And ->
          let t1, f1 = truthiness va and t2, f2 = truthiness vb in
          itv_of_bool (Interval.AB { cant = t1 && t2; canf = f1 || f2 })
      | A.Or ->
          let t1, f1 = truthiness va and t2, f2 = truthiness vb in
          itv_of_bool (Interval.AB { cant = t1 || t2; canf = f1 && f2 })
      | _ ->
          let c = Option.get (cmp_of_binop op) in
          itv_of_bool (Interval.cmpf c va vb))
  | A.Call (f, args) -> Interval.math_itv f (List.map (eval_itv env) args)
  | A.Ternary (c, a, b) ->
      let t, f = truthiness (eval_itv env c) in
      let va = if t then eval_itv env a else F.bot
      and vb = if f then eval_itv env b else F.bot in
      F.join va vb

(* ------------------------------------------------------------------ *)
(* unused-state reachability                                           *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

(* Transitive free variables of [e], expanding intermediate definitions. *)
let rec deep_deps (assigns : (string * A.expr) list) (seen : SSet.t ref)
    (e : A.expr) : unit =
  List.iter
    (fun v ->
      if not (SSet.mem v !seen) then begin
        seen := SSet.add v !seen;
        match List.assoc_opt v assigns with
        | Some def -> deep_deps assigns seen def
        | None -> ()
      end)
    (A.free_vars e)

(** States never read — transitively — by any output or by any live
    state's derivative.  Empty when the model has no outputs (then
    everything would be trivially "unused" and the check says nothing
    useful). *)
let unused_states (m : M.t) : string list =
  let outputs =
    List.filter_map
      (fun (e : M.ext_var) ->
        if e.M.ext_assigned then List.assoc_opt e.M.ext_name m.M.assigns
        else None)
      m.M.externals
  in
  if outputs = [] then []
  else begin
    let live = ref SSet.empty in
    List.iter (deep_deps m.M.assigns live) outputs;
    (* a state referenced by a live state's dynamics is itself live *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (s : M.state_var) ->
          if SSet.mem s.M.sv_name !live then begin
            let before = SSet.cardinal !live in
            deep_deps m.M.assigns live s.M.sv_diff;
            if SSet.cardinal !live <> before then changed := true
          end)
        m.M.states
    done;
    List.filter_map
      (fun (s : M.state_var) ->
        if SSet.mem s.M.sv_name !live then None else Some s.M.sv_name)
      m.M.states
  end

(* ------------------------------------------------------------------ *)
(* lookup ranges                                                       *)
(* ------------------------------------------------------------------ *)

let base_env (m : M.t) : string -> F.t =
  let tbl = Hashtbl.create 32 in
  Hashtbl.replace tbl "dt" (F.make 0.0 0.05);
  Hashtbl.replace tbl "t" (F.make 0.0 infinity);
  List.iter
    (fun (s : M.state_var) -> Hashtbl.replace tbl s.M.sv_name (F.const s.M.sv_init))
    m.M.states;
  List.iter
    (fun (e : M.ext_var) ->
      Hashtbl.replace tbl e.M.ext_name (F.const e.M.ext_init))
    m.M.externals;
  fun x -> Option.value ~default:F.top (Hashtbl.find_opt tbl x)

(* One forward-Euler step from the initial point, with dt in [0, 0.05]:
   a cheap reachable-set under-layer good enough to catch tables whose
   domain the trajectory leaves immediately. *)
let one_step_itv (m : M.t) (s : M.state_var) : F.t =
  let env0 = base_env m in
  (* evaluate intermediates in topological order on top of the seeds *)
  let defs = Hashtbl.create 16 in
  List.iter
    (fun (x, e) ->
      let env y =
        match Hashtbl.find_opt defs y with Some v -> v | None -> env0 y
      in
      Hashtbl.replace defs x (eval_itv env e))
    m.M.assigns;
  let env y =
    match Hashtbl.find_opt defs y with Some v -> v | None -> env0 y
  in
  let d = eval_itv env s.M.sv_diff in
  F.add (F.const s.M.sv_init) (F.mul (F.make 0.0 0.05) d)

let lookup_diags (m : M.t) : Diag.t list =
  List.concat_map
    (fun (l : M.lut_spec) ->
      let loc = M.find_loc m ("lookup:" ^ l.M.lut_var) in
      let init =
        match M.find_state m l.M.lut_var with
        | Some s -> Some s.M.sv_init
        | None -> (
            match M.find_ext m l.M.lut_var with
            | Some e -> Some e.M.ext_init
            | None -> None)
      in
      let init_diag =
        match init with
        | Some v when v < l.M.lut_lo || v > l.M.lut_hi ->
            [
              Diag.makef ~sev:Diag.Error ~loc ~code:"lookup-range"
                "lookup table for %s covers [%g, %g] but %s starts at %g \
                 (outside the table domain)"
                l.M.lut_var l.M.lut_lo l.M.lut_hi l.M.lut_var v;
            ]
        | _ -> []
      in
      let escape_diag =
        (* only meaningful for states (externals are driven from outside)
           and only when the start point itself is fine *)
        match (init_diag, M.find_state m l.M.lut_var) with
        | [], Some s ->
            let r = one_step_itv m s in
            if
              F.is_finite r
              && (r.F.lo < l.M.lut_lo || r.F.hi > l.M.lut_hi)
            then
              [
                Diag.makef ~sev:Diag.Warning ~loc ~code:"lookup-range"
                  "%s may reach [%g, %g] after one step, escaping the lookup \
                   domain [%g, %g] (interpolation will clamp)"
                  l.M.lut_var r.F.lo r.F.hi l.M.lut_lo l.M.lut_hi;
              ]
            else []
        | _ -> []
      in
      init_diag @ escape_diag)
    m.M.luts

(* ------------------------------------------------------------------ *)

let markov_diags (m : M.t) : Diag.t list =
  List.filter_map
    (fun (s : M.state_var) ->
      if s.M.sv_method = M.MarkovBE && (s.M.sv_init < 0.0 || s.M.sv_init > 1.0)
      then
        Some
          (Diag.makef ~sev:Diag.Warning
             ~loc:(M.find_loc m s.M.sv_name)
             ~code:"markov-init"
             "markov_be state %s is an occupancy but starts at %g, outside \
              [0, 1]"
             s.M.sv_name s.M.sv_init)
      else None)
    m.M.states

(* ------------------------------------------------------------------ *)
(* run-constant discipline                                             *)
(* ------------------------------------------------------------------ *)

(* Sema folds every declared [.param()] into the kernel as a literal,
   and the driver passes [dt] and [t] to every kernel call.  A model
   that *writes* one of these inside the per-step body breaks that
   contract silently: parameter folding already replaced every read with
   the compile-time value, so a same-named integrated state diverges
   from what every read saw, and an assignment to [dt]/[t] shadows the
   value the driver passes.  Both are rejected here. *)
let run_constant_diags (m : M.t) : Diag.t list =
  let param_states =
    List.filter_map
      (fun (p, v) ->
        match M.find_state m p with
        | Some _ ->
            Some
              (Diag.makef ~sev:Diag.Error
                 ~loc:(M.find_loc m p)
                 ~code:"run-constant-write"
                 "parameter %s is a run constant (folded to %g at compile \
                  time) but is also integrated as a state every step; every \
                  read uses the constant while the state silently diverges"
                 p v)
        | None -> None)
      m.M.params
  in
  let reserved =
    List.filter_map
      (fun (x, _) ->
        if String.equal x "dt" || String.equal x "t" then
          Some
            (Diag.makef ~sev:Diag.Error
               ~loc:(M.find_loc m x)
               ~code:"run-constant-write"
               "%s is a driver-bound run constant; assigning it inside the \
                step body shadows the value the driver passes to the kernel"
               x)
        else None)
      m.M.assigns
  in
  param_states @ reserved

let unused_diags (m : M.t) : Diag.t list =
  List.map
    (fun name ->
      Diag.makef ~sev:Diag.Warning
        ~loc:(M.find_loc m name)
        ~code:"unused-state"
        "state variable %s is integrated every step but nothing observable \
         depends on it"
        name)
    (unused_states m)

(** All diagnostics for a model: the analyzer's own plus the lint's. *)
let check (m : M.t) : Diag.t list =
  m.M.warnings @ unused_diags m @ lookup_diags m @ markov_diags m
  @ run_constant_diags m

let has_errors (ds : Diag.t list) : bool = List.exists Diag.is_error ds

let count_by_severity (ds : Diag.t list) : int * int * int =
  List.fold_left
    (fun (i, w, e) (d : Diag.t) ->
      match d.Diag.sev with
      | Diag.Info -> (i + 1, w, e)
      | Diag.Warning -> (i, w + 1, e)
      | Diag.Error -> (i, w, e + 1))
    (0, 0, 0) ds
