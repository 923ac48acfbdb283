(** Parser for the textual IR emitted by {!Printer}.

    Enables round-tripping generated kernels through their textual form —
    useful for storing IR in files, for the CLI, and as a strong test of
    the printer (parse ∘ print must reproduce a structurally identical,
    re-verifiable module).

    The grammar is exactly the printer's output language; this is not a
    general MLIR parser. *)

exception Error of { line : int; msg : string }

let err line fmt = Fmt.kstr (fun msg -> raise (Error { line; msg })) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizer: one line at a time, split into small lexemes              *)
(* ------------------------------------------------------------------ *)

type tok =
  | TPercent of int  (** %N *)
  | TAt of string  (** @name *)
  | TIdent of string  (** op names, keywords; may contain dots *)
  | TNum of string  (** numeric literal text *)
  | TPunct of char  (** ( ) { } [ ] , = : < > - *)
  | TArrow

let tokenize_line (lineno : int) (s : string) : tok list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '?'
  in
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '%' then begin
      incr i;
      let start = !i in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      if !i = start then err lineno "bad SSA name";
      let text = String.sub s start (!i - start) in
      match int_of_string_opt text with
      | Some n -> toks := TPercent n :: !toks
      | None -> err lineno "SSA name %%%s out of range" text
    end
    else if c = '@' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident s.[!i] do
        incr i
      done;
      toks := TAt (String.sub s start (!i - start)) :: !toks
    end
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then begin
      i := !i + 2;
      toks := TArrow :: !toks
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while
        !i < n
        && (is_num s.[!i]
           || ((s.[!i] = '-' || s.[!i] = '+')
              && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E')))
      do
        incr i
      done;
      (* a digit run directly followed by letters (vector<8xf64>) stops at
         the first non-numeric character; the suffix lexes as an ident *)
      toks := TNum (String.sub s start (!i - start)) :: !toks
    end
    else if is_ident c || (c = '-' && !i + 1 < n && is_ident s.[!i + 1]) then begin
      (* a leading '-' here can only start the printed constants -inf and
         -nan: a digit after it took the numeric branch above *)
      let start = !i in
      incr i;
      while !i < n && is_ident s.[!i] do
        incr i
      done;
      toks := TIdent (String.sub s start (!i - start)) :: !toks
    end
    else begin
      (match c with
      | '(' | ')' | '{' | '}' | '[' | ']' | ',' | '=' | ':' | '<' | '>' ->
          toks := TPunct c :: !toks
      | _ -> err lineno "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token-stream helpers                                                 *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : tok list; line : int }

let peek (s : stream) = match s.toks with [] -> None | t :: _ -> Some t
let pop (s : stream) =
  match s.toks with
  | [] -> err s.line "unexpected end of line"
  | t :: rest ->
      s.toks <- rest;
      t

let expect_punct (s : stream) (c : char) =
  match pop s with
  | TPunct c' when c = c' -> ()
  | _ -> err s.line "expected %C" c

let expect_ident (s : stream) (name : string) =
  match pop s with
  | TIdent n when n = name -> ()
  | _ -> err s.line "expected %s" name

let accept_punct (s : stream) (c : char) =
  match peek s with
  | Some (TPunct c') when c = c' ->
      ignore (pop s);
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

let parse_ty (s : stream) : Ty.t =
  match pop s with
  | TIdent "f64" -> Ty.F64
  | TIdent "i64" -> Ty.I64
  | TIdent "i1" -> Ty.I1
  | TIdent "memref" ->
      expect_punct s '<';
      (match pop s with
      | TIdent "?xf64" -> ()
      | _ -> err s.line "expected ?xf64 in memref type");
      expect_punct s '>';
      Ty.Memref
  | TIdent "vector" -> (
      expect_punct s '<';
      (* the lexeme is like 8xf64 *)
      match pop s with
      | TNum w_then_x -> (
          (* number may have been split: "8" then ident "xf64" *)
          let w =
            match int_of_string_opt w_then_x with
            | Some w when w >= 2 -> w
            | _ -> err s.line "bad vector width %s" w_then_x
          in
          match pop s with
          | TIdent x ->
              let elem =
                match x with
                | "xf64" -> Ty.F64
                | "xi64" -> Ty.I64
                | "xi1" -> Ty.I1
                | _ -> err s.line "bad vector element %s" x
              in
              expect_punct s '>';
              Ty.vec w elem
          | _ -> err s.line "bad vector type")
      | _ -> err s.line "bad vector width")
  | _ -> err s.line "expected a type"

let parse_ty_list (s : stream) : Ty.t list =
  (* ( ty, ty, ... ) possibly empty *)
  expect_punct s '(';
  if accept_punct s ')' then []
  else
    let rec loop acc =
      let t = parse_ty s in
      if accept_punct s ',' then loop (t :: acc)
      else begin
        expect_punct s ')';
        List.rev (t :: acc)
      end
    in
    loop []

(* ------------------------------------------------------------------ *)
(* Module structure                                                     *)
(* ------------------------------------------------------------------ *)

(* maps printed SSA numbers to freshly created values *)
type env = {
  ctx : Builder.ctx;
  values : (int, Value.t) Hashtbl.t;
  modl : Func.modl;
}

let define (env : env) (line : int) (n : int) (ty : Ty.t) : Value.t =
  if Hashtbl.mem env.values n then err line "value %%%d redefined" n;
  let v = Builder.fresh_value env.ctx ty in
  Hashtbl.replace env.values n v;
  v

let use (env : env) (line : int) (n : int) : Value.t =
  match Hashtbl.find_opt env.values n with
  | Some v -> v
  | None -> err line "use of undefined value %%%d" n

let percent (s : stream) : int =
  match pop s with TPercent n -> n | _ -> err s.line "expected %%N"

(* Define the printed result ids [ids] with the types [tys]; the counts
   must agree. *)
let define_results (env : env) (line : int) (ids : int list) (tys : Ty.t list)
    : Value.t list =
  if List.compare_lengths ids tys <> 0 then
    err line "%d result names for %d result types" (List.length ids)
      (List.length tys);
  List.map2 (define env line) ids tys

(* leading "%1, %2 = " result list; empty when the line starts with an op *)
let parse_result_ids (s : stream) : int list =
  match peek s with
  | Some (TPercent _) ->
      let rec loop acc =
        let n = percent s in
        if accept_punct s ',' then loop (n :: acc)
        else begin
          (match pop s with
          | TPunct '=' -> ()
          | _ -> err s.line "expected '=' after result list");
          List.rev (n :: acc)
        end
      in
      loop []
  | _ -> []

let parse_operand_ids (s : stream) : int list =
  match peek s with
  | Some (TPercent _) ->
      let rec loop acc =
        let n = percent s in
        if accept_punct s ',' then loop (n :: acc) else List.rev (n :: acc)
      in
      loop []
  | _ -> []

(* trailing " : (tys) -> tys" or " : tys" annotation *)
let parse_type_annot (s : stream) : Ty.t list * Ty.t list =
  match peek s with
  | Some (TPunct ':') -> (
      ignore (pop s);
      match peek s with
      | Some (TPunct '(') ->
          let params = parse_ty_list s in
          (match pop s with
          | TArrow -> ()
          | _ -> err s.line "expected ->");
          let results =
            match peek s with
            | Some (TPunct '(') -> parse_ty_list s
            | _ ->
                let rec loop acc =
                  let t = parse_ty s in
                  if accept_punct s ',' then loop (t :: acc)
                  else List.rev (t :: acc)
                in
                loop []
          in
          (params, results)
      | _ ->
          let rec loop acc =
            let t = parse_ty s in
            if accept_punct s ',' then loop (t :: acc) else List.rev (t :: acc)
          in
          ([], loop []))
  | _ -> ([], [])

let cmp_of_name line = function
  | "lt" -> Op.Lt
  | "le" -> Op.Le
  | "gt" -> Op.Gt
  | "ge" -> Op.Ge
  | "eq" -> Op.Eq
  | "ne" -> Op.Ne
  | p -> err line "unknown comparison predicate %s" p

(* simple (region-free, non-constant) op kinds by printed name *)
let simple_kind line (name : string) : Op.kind =
  match name with
  | "arith.addf" -> Op.BinF Op.FAdd
  | "arith.subf" -> Op.BinF Op.FSub
  | "arith.mulf" -> Op.BinF Op.FMul
  | "arith.divf" -> Op.BinF Op.FDiv
  | "arith.minf" -> Op.BinF Op.FMin
  | "arith.maxf" -> Op.BinF Op.FMax
  | "arith.negf" -> Op.NegF
  | "arith.addi" -> Op.BinI Op.IAdd
  | "arith.subi" -> Op.BinI Op.ISub
  | "arith.muli" -> Op.BinI Op.IMul
  | "arith.divsi" -> Op.BinI Op.IDiv
  | "arith.remsi" -> Op.BinI Op.IRem
  | "arith.andi" -> Op.BinB Op.BAnd
  | "arith.ori" -> Op.BinB Op.BOr
  | "arith.not" -> Op.NotB
  | "arith.select" -> Op.Select
  | "arith.sitofp" -> Op.SIToFP
  | "vector.broadcast" -> Op.Broadcast
  | "vector.load" -> Op.VecLoad
  | "vector.store" -> Op.VecStore
  | "vector.gather" -> Op.Gather
  | "vector.scatter" -> Op.Scatter
  | "memref.load" -> Op.MemLoad
  | "memref.store" -> Op.MemStore
  | "scf.yield" -> Op.Yield
  | "func.return" -> Op.Return
  | _ ->
      if String.length name > 5 && String.sub name 0 5 = "math." then
        Op.Math (String.sub name 5 (String.length name - 5))
      else err line "unknown operation %s" name

(* ------------------------------------------------------------------ *)
(* Line-structured parsing of functions and regions                     *)
(* ------------------------------------------------------------------ *)

type lines = { mutable rest : (int * string) list }

let next_line (ls : lines) : (int * string) option =
  match ls.rest with
  | [] -> None
  | l :: rest ->
      ls.rest <- rest;
      Some l

let mk_op (env : env) (kind : Op.kind) (operands : Value.t list)
    (results : Value.t list) (regions : Op.region array) : Op.op =
  let id = Builder.fresh_op_id env.ctx in
  {
    Op.o_id = id;
    kind;
    operands = Array.of_list operands;
    results = Array.of_list results;
    regions;
  }

let rec parse_region_ops (env : env) (ls : lines) : Op.op list =
  let acc = ref [] in
  let rec loop () =
    match next_line ls with
    | None -> err 0 "unexpected end of input inside a region"
    | Some (lineno, line) ->
        let trimmed = String.trim line in
        if trimmed = "}" then ()
        else begin
          acc := parse_op env ls lineno trimmed :: !acc;
          loop ()
        end
  in
  loop ();
  List.rev !acc

and parse_op (env : env) (ls : lines) (lineno : int) (line : string) : Op.op =
  let s = { toks = tokenize_line lineno line; line = lineno } in
  let result_ids = parse_result_ids s in
  match pop s with
  | TIdent "arith.constant" -> (
      (* %n = arith.constant <lit> : ty *)
      let lit = pop s in
      expect_punct s ':';
      let ty = parse_ty s in
      let kind =
        match (lit, ty) with
        | TNum t, Ty.F64 -> (
            match float_of_string_opt t with
            | Some f -> Op.ConstF f
            | None -> err lineno "bad f64 constant %s" t)
        | TNum t, Ty.I64 -> (
            match int_of_string_opt t with
            | Some n -> Op.ConstI n
            | None -> err lineno "bad i64 constant %s" t)
        | TIdent "inf", Ty.F64 -> Op.ConstF Float.infinity
        | TIdent "-inf", Ty.F64 -> Op.ConstF Float.neg_infinity
        | TIdent "nan", Ty.F64 -> Op.ConstF Float.nan
        | TIdent "-nan", Ty.F64 -> Op.ConstF (Float.neg Float.nan)
        | _ -> err lineno "bad constant"
      in
      match result_ids with
      | [ n ] -> mk_op env kind [] [ define env lineno n ty ] [||]
      | _ -> err lineno "constant must have one result")
  | TIdent "arith.cmpf" ->
      (* arith.cmpf lt, %a, %b : ty *)
      let pred =
        match pop s with
        | TIdent p -> cmp_of_name lineno p
        | _ -> err lineno "expected predicate"
      in
      expect_punct s ',';
      let operand_ids = parse_operand_ids s in
      expect_punct s ':';
      let oty = parse_ty s in
      let operands = List.map (use env lineno) operand_ids in
      let rty = Ty.like ~like:oty Ty.I1 in
      let results = List.map (fun n -> define env lineno n rty) result_ids in
      mk_op env (Op.CmpF pred) operands results [||]
  | TIdent "vector.step" ->
      (* vector.step  : vector<wxi64> *)
      let _ = parse_operand_ids s in
      let _, rtys = parse_type_annot s in
      let w = match rtys with [ t ] -> Ty.width t | _ -> err lineno "bad step" in
      let results = List.map (fun n -> define env lineno n (Ty.vec w Ty.I64)) result_ids in
      mk_op env (Op.Iota w) [] results [||]
  | TIdent "scf.for" | TIdent "scf.parallel" ->
      ls.rest <- (lineno, line) :: ls.rest;
      parse_for env ls
  | TIdent "func.call" -> (
      (* func.call @name %a, %b : (tys) -> tys *)
      match pop s with
      | TAt callee ->
          let operand_ids = parse_operand_ids s in
          let _, rtys = parse_type_annot s in
          let operands = List.map (use env lineno) operand_ids in
          let results = define_results env lineno result_ids rtys in
          mk_op env (Op.Call callee) operands results [||]
      | _ -> err lineno "expected callee after func.call")
  | TIdent name ->
      let operand_ids = parse_operand_ids s in
      let _, rtys = parse_type_annot s in
      let kind = simple_kind lineno name in
      let operands = List.map (use env lineno) operand_ids in
      let results = define_results env lineno result_ids rtys in
      mk_op env kind operands results [||]
  | _ -> err lineno "expected an operation"

and parse_for (env : env) (ls : lines) : Op.op =
  match next_line ls with
  | None -> err 0 "missing scf.for line"
  | Some (lineno, line) ->
      let s = { toks = tokenize_line lineno line; line = lineno } in
      let result_ids = parse_result_ids s in
      let parallel =
        match pop s with
        | TIdent "scf.for" -> false
        | TIdent "scf.parallel" -> true
        | _ -> err lineno "expected scf.for"
      in
      let iv_id = percent s in
      expect_punct s '=';
      let lb = use env lineno (percent s) in
      expect_ident s "to";
      let ub = use env lineno (percent s) in
      expect_ident s "step";
      let step = use env lineno (percent s) in
      (* optional iter_args(%a = %i, ...) *)
      let iter_pairs =
        match peek s with
        | Some (TIdent "iter_args") ->
            ignore (pop s);
            expect_punct s '(';
            (* printed as iter_args(%a1, %a2 = %i1, %i2) *)
            let args = parse_operand_ids s in
            expect_punct s '=';
            let inits = parse_operand_ids s in
            expect_punct s ')';
            if List.length args <> List.length inits then
              err lineno "iter_args arity mismatch";
            List.combine args inits
        | _ -> []
      in
      expect_punct s '{';
      let inits = List.map (fun (_, i) -> use env lineno i) iter_pairs in
      let iv = define env lineno iv_id Ty.I64 in
      let iter_args =
        List.map2
          (fun (a, _) (init : Value.t) -> define env lineno a init.ty)
          iter_pairs inits
      in
      let body = parse_region_ops env ls in
      let region = { Op.r_args = iv :: iter_args; r_ops = body } in
      let results =
        define_results env lineno result_ids
          (List.map (fun (v : Value.t) -> v.ty) inits)
      in
      mk_op env (Op.For { parallel }) (lb :: ub :: step :: inits) results
        [| region |]

(* func.func @name(%1 : ty, ...) -> (tys) { *)
let parse_func_header (env : env) (lineno : int) (line : string) :
    string * Value.t list * Ty.t list =
  let s = { toks = tokenize_line lineno line; line = lineno } in
  expect_ident s "func.func";
  let name = match pop s with TAt n -> n | _ -> err lineno "expected @name" in
  expect_punct s '(';
  let params = ref [] in
  (if not (accept_punct s ')') then
     let rec loop () =
       let n = percent s in
       expect_punct s ':';
       let ty = parse_ty s in
       params := define env lineno n ty :: !params;
       if accept_punct s ',' then loop () else expect_punct s ')'
     in
     loop ());
  (match pop s with TArrow -> () | _ -> err lineno "expected ->");
  let results = parse_ty_list s in
  expect_punct s '{';
  (name, List.rev !params, results)

(* func.func private @name(tys) -> (tys) *)
let parse_extern (lineno : int) (line : string) : Func.extern_sig =
  let s = { toks = tokenize_line lineno line; line = lineno } in
  expect_ident s "func.func";
  expect_ident s "private";
  let name = match pop s with TAt n -> n | _ -> err lineno "expected @name" in
  let params = parse_ty_list s in
  (match pop s with TArrow -> () | _ -> err lineno "expected ->");
  let results = parse_ty_list s in
  { Func.e_name = name; e_params = params; e_results = results }

(** Parse a module in {!Printer} syntax. *)
let parse_module (text : string) : Func.modl =
  let raw_lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let ls = { rest = raw_lines } in
  let header =
    match next_line ls with
    | Some (n, l) -> (n, String.trim l)
    | None -> err 0 "empty module"
  in
  let mname =
    let n, l = header in
    let s = { toks = tokenize_line n l; line = n } in
    expect_ident s "module";
    let name = match pop s with TAt m -> m | _ -> err n "expected @name" in
    expect_punct s '{';
    name
  in
  let modl = Func.create_module mname in
  let env = { ctx = Builder.create_ctx (); values = Hashtbl.create 64; modl } in
  let rec loop () =
    match next_line ls with
    | None -> err 0 "missing closing brace of module"
    | Some (n, raw) -> (
        let l = String.trim raw in
        if l = "}" then ()
        else if
          String.length l >= 17 && String.sub l 0 17 = "func.func private"
        then begin
          Func.declare_extern modl (parse_extern n l);
          loop ()
        end
        else if String.length l >= 9 && String.sub l 0 9 = "func.func" then begin
          let name, params, results = parse_func_header env n l in
          let body_ops = parse_region_ops env ls in
          Func.add_func modl
            {
              Func.f_name = name;
              f_params = params;
              f_results = results;
              f_body = { Op.r_args = []; r_ops = body_ops };
            };
          loop ()
        end
        else err n "expected a function or '}'")
  in
  loop ();
  modl

let parse_module_result (text : string) : (Func.modl, string) result =
  match parse_module text with
  | m -> Ok m
  | exception Error { line; msg } ->
      Result.Error (Printf.sprintf "line %d: %s" line msg)
