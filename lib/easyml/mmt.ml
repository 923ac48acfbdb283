(** MMT (Myokit) → EasyML translator.

    The paper's Figure 1 shows EasyML doubling as an intermediate
    representation: CellML, SBML and Myokit's MMT format reach limpetMLIR
    through "semi-automatic scripts".  This module is that script for a
    practical subset of MMT:

    - [[[model]]] header with [component.var = value] initial conditions
      and a [name:] line;
    - [[component]] sections containing [x = expr] definitions and
      [dot(x) = expr] state equations;
    - [use other.var as alias] aliases;
    - unit annotations ([1.2 [mV]] and [in [ms]] lines), [bind]/[label]
      lines — parsed and dropped;
    - Myokit expressions: arithmetic with [^] for powers, [if(c, a, b)],
      [piecewise(c1, v1, ..., default)], [and]/[or]/[not], dotted
      references ([other.var]) and the usual math calls.

    Names are flattened as [component__var].  The caller designates which
    variable is the membrane potential (exported as the [Vm] external) and
    which is the total ionic current (exported as [Iion]); this mirrors
    Myokit's label/bind mechanism without needing full label support. *)

exception Error of { line : int; msg : string }

let err line fmt = Fmt.kstr (fun msg -> raise (Error { line; msg })) fmt

let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Raw structure                                                        *)
(* ------------------------------------------------------------------ *)

type raw_def = {
  rd_line : int;
  rd_comp : string;
  rd_var : string;
  rd_dot : bool;
  rd_rhs : string;  (** untranslated expression text *)
}

type raw = {
  mutable r_name : string;
  mutable r_inits : (string * float) list;  (** flattened name, value *)
  mutable r_defs : raw_def list;
  mutable r_aliases : (string * string) list;
      (** (comp.alias, flattened target) *)
}

let flat comp var = comp ^ "__" ^ var

let strip_comment (s : string) : string =
  match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

(* drop a trailing unit annotation: "1.2 [mV]" -> "1.2" *)
let drop_unit (s : string) : string =
  let t = String.trim s in
  match String.rindex_opt t '[' with
  | Some i when i > 0 && t.[String.length t - 1] = ']' ->
      String.trim (String.sub t 0 i)
  | _ -> t

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse_raw (lines : string list) : raw =
  let raw = { r_name = "mmt_model"; r_inits = []; r_defs = []; r_aliases = [] } in
  let section = ref None in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let content = String.trim (strip_comment line) in
      if content = "" then ()
      else if content = "[[model]]" then section := Some "[[model]]"
      else if
        String.length content > 2
        && content.[0] = '['
        && content.[String.length content - 1] = ']'
        && content.[1] <> '['
      then section := Some (String.sub content 1 (String.length content - 2))
      else
        match !section with
        | None -> err lineno "content before any section"
        | Some "[[model]]" -> (
            match String.index_opt content ':' with
            | Some i when String.trim (String.sub content 0 i) = "name" ->
                raw.r_name <-
                  String.trim
                    (String.sub content (i + 1) (String.length content - i - 1))
            | _ -> (
                match String.index_opt content '=' with
                | Some i -> (
                    let lhs = String.trim (String.sub content 0 i) in
                    let rhs =
                      drop_unit
                        (String.sub content (i + 1) (String.length content - i - 1))
                    in
                    let flatname =
                      match String.split_on_char '.' lhs with
                      | [ c; v ] -> flat c v
                      | _ -> err lineno "expected comp.var initial value"
                    in
                    match float_of_string_opt rhs with
                    | Some f -> raw.r_inits <- (flatname, f) :: raw.r_inits
                    | None -> err lineno "bad initial value %S" rhs)
                | None -> err lineno "unrecognized model-section line %S" content))
        | Some comp ->
            if starts_with "in [" content || starts_with "bind " content
               || starts_with "label " content
            then () (* annotation lines *)
            else if starts_with "use " content then begin
              let rest =
                String.trim (String.sub content 4 (String.length content - 4))
              in
              match
                List.filter (fun s -> s <> "") (String.split_on_char ' ' rest)
              with
              | [ target; "as"; alias ] -> (
                  match String.split_on_char '.' target with
                  | [ c; v ] ->
                      raw.r_aliases <-
                        (comp ^ "." ^ alias, flat c v) :: raw.r_aliases
                  | _ -> err lineno "bad use target %S" target)
              | _ -> err lineno "bad use syntax %S" content
            end
            else
              match String.index_opt content '=' with
              | None -> err lineno "unrecognized line %S in [%s]" content comp
              | Some i ->
                  let lhs = String.trim (String.sub content 0 i) in
                  let rhs =
                    drop_unit
                      (String.sub content (i + 1) (String.length content - i - 1))
                  in
                  let is_dot, var =
                    if
                      String.length lhs > 5
                      && starts_with "dot(" lhs
                      && lhs.[String.length lhs - 1] = ')'
                    then
                      (true, String.trim (String.sub lhs 4 (String.length lhs - 5)))
                    else (false, lhs)
                  in
                  raw.r_defs <-
                    { rd_line = lineno; rd_comp = comp; rd_var = var;
                      rd_dot = is_dot; rd_rhs = rhs }
                    :: raw.r_defs)
    lines;
  raw.r_inits <- List.rev raw.r_inits;
  raw.r_defs <- List.rev raw.r_defs;
  raw

(* ------------------------------------------------------------------ *)
(* Expression translation                                               *)
(* ------------------------------------------------------------------ *)

(* Normalize Myokit-only syntax into something the EasyML parser accepts,
   then fix up the AST. *)
let translate_expr ~(line : int) ~(resolve : string -> string) (src : string) :
    Ast.expr =
  let buf = Buffer.create (String.length src) in
  let n = String.length src in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  let word_at i w =
    i + String.length w <= n
    && String.sub src i (String.length w) = w
    && (i = 0 || not (is_ident src.[i - 1]))
    && (i + String.length w >= n || not (is_ident src.[i + String.length w]))
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if word_at !i "if" then begin
      (* [if] is an EasyML statement keyword; rename the Myokit function *)
      Buffer.add_string buf "__mmt_if";
      i := !i + 2
    end
    else if word_at !i "and" then begin
      Buffer.add_string buf " && ";
      i := !i + 3
    end
    else if word_at !i "or" then begin
      Buffer.add_string buf " || ";
      i := !i + 2
    end
    else if word_at !i "not" then begin
      Buffer.add_string buf " !";
      i := !i + 3
    end
    else if
      c = '.' && !i > 0 && is_ident src.[!i - 1] && !i + 1 < n
      && is_ident src.[!i + 1]
      && not (src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      (* dotted reference comp.var -> comp__var *)
      Buffer.add_string buf "__";
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  let text = Buffer.contents buf in
  let parsed =
    match Parser.parse ("__mmt_tmp = " ^ text ^ ";") with
    | Ok [ Ast.Assign (_, _, e) ] -> e
    | Ok _ -> err line "unexpected parse of expression %S" src
    | Error msg -> err line "cannot parse expression %S: %s" src msg
  in
  (* rebuild: if/piecewise desugaring and name resolution ('^' is handled
     by the EasyML parser extension) *)
  let rec fix (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Num _ -> e
    | Ast.Var v -> Ast.Var (resolve v)
    | Ast.Unary (op, a) -> Ast.Unary (op, fix a)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, fix a, fix b)
    | Ast.Call ("__mmt_if", [ c; t; f ]) -> Ast.Ternary (fix c, fix t, fix f)
    | Ast.Call ("piecewise", args) ->
        let rec build = function
          | [ d ] -> fix d
          | c :: v :: rest -> Ast.Ternary (fix c, fix v, build rest)
          | [] -> err line "piecewise needs arguments"
        in
        build args
    | Ast.Call (f, args) -> Ast.Call (f, List.map fix args)
    | Ast.Ternary (a, b, c) -> Ast.Ternary (fix a, fix b, fix c)
  in
  fix parsed

(* ------------------------------------------------------------------ *)
(* Assembly                                                             *)
(* ------------------------------------------------------------------ *)

type definition = {
  d_comp : string;
  d_var : string;  (** flattened name *)
  d_dot : bool;
  d_rhs : Ast.expr;
}

type t = {
  name : string;
  inits : (string * float) list;
  defs : definition list;
}

(** Parse and resolve an MMT document. *)
let parse (src : string) : t =
  let raw = parse_raw (String.split_on_char '\n' src) in
  (* all defined flattened names, for bare-name resolution *)
  let known : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace known (d.rd_comp ^ "." ^ d.rd_var) (flat d.rd_comp d.rd_var))
    raw.r_defs;
  List.iter (fun (k, v) -> Hashtbl.replace known k v) raw.r_aliases;
  let defs =
    List.map
      (fun d ->
        let resolve name =
          if contains name "__" then name (* already a dotted reference *)
          else if name = "time" then "t"
          else
            match Hashtbl.find_opt known (d.rd_comp ^ "." ^ name) with
            | Some f -> f
            | None -> name (* dt, t, or an error caught by sema later *)
        in
        {
          d_comp = d.rd_comp;
          d_var = flat d.rd_comp d.rd_var;
          d_dot = d.rd_dot;
          d_rhs = translate_expr ~line:d.rd_line ~resolve d.rd_rhs;
        })
      raw.r_defs
  in
  (* aliases become plain definitions alias = target *)
  let alias_defs =
    List.map
      (fun (qual, target) ->
        match String.split_on_char '.' qual with
        | [ comp; alias ] ->
            { d_comp = comp; d_var = flat comp alias; d_dot = false;
              d_rhs = Ast.Var target }
        | _ -> assert false)
      raw.r_aliases
  in
  { name = raw.r_name; inits = raw.r_inits; defs = alias_defs @ defs }

(** Render as EasyML.

    [vm] and [iion] are the flattened (or [comp.var]) names of the
    membrane potential and the total ionic current.  The Vm state's [dot]
    equation is dropped (the simulator owns the Vm update, as in
    openCARP), its uses become the [Vm] external, and [Iion] is emitted as
    the external output. *)
let to_easyml ~(vm : string) ~(iion : string) (t : t) : string =
  let canon n =
    match String.split_on_char '.' n with
    | [ c; v ] -> flat c v
    | _ -> n
  in
  let vm = canon vm and iion = canon iion in
  let buf = Buffer.create 4096 in
  let pr fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pr "# Translated from MMT (Myokit) source: model %s\n" t.name;
  pr "Vm; .external(); .nodal(); .lookup(-100, 100, 0.05);\n";
  pr "Iion; .external(); .nodal();\n";
  (* substitution of vm by Vm in every expression *)
  let subst_vm e = Ast.subst ~x:vm ~by:(Ast.Var "Vm") e in
  (* initial values *)
  List.iter
    (fun (n, v) ->
      if n = vm then pr "Vm_init = %.17g;\n" v
      else pr "%s_init = %.17g;\n" n v)
    t.inits;
  (* definitions in source order; the Vm dot equation is dropped *)
  List.iter
    (fun d ->
      if d.d_dot && d.d_var = vm then ()
      else if d.d_dot then begin
        pr "diff_%s = %s;\n" d.d_var (Ast.expr_to_string (subst_vm d.d_rhs));
        (* gates whose equation is syntactically affine in the state get
           Rush-Larsen, as a hand-ported openCARP model would *)
        if Option.is_some (Linearity.affine ~y:d.d_var (subst_vm d.d_rhs))
        then pr "%s; .method(rush_larsen);\n" d.d_var
      end
      else pr "%s = %s;\n" d.d_var (Ast.expr_to_string (subst_vm d.d_rhs)))
    t.defs;
  pr "Iion = %s;\n" iion;
  Buffer.contents buf

(** One-step convenience: MMT text → analyzed EasyML model. *)
let import ~(vm : string) ~(iion : string) (src : string) : Model.t =
  let t = parse src in
  Sema.analyze_source ~name:t.name (to_easyml ~vm ~iion t)
