(** IR builder.

    Creates SSA values and ops with eager operand type checking, so that a
    code-generation bug surfaces at the op construction site rather than in
    the verifier or the execution engine.  Loop regions are built through
    the higher-order [for_] combinator, which takes a body-emitting
    callback and inserts the terminating [scf.yield] automatically. *)

exception Type_error of string

let terr fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

type ctx = { mutable next_value : int; mutable next_op : int }

let create_ctx () : ctx = { next_value = 0; next_op = 0 }

let fresh_value (ctx : ctx) (ty : Ty.t) : Value.t =
  let id = ctx.next_value in
  ctx.next_value <- id + 1;
  { Value.id; ty }

let fresh_op_id (ctx : ctx) : int =
  let id = ctx.next_op in
  ctx.next_op <- id + 1;
  id

(* The builder appends ops to the innermost open region; ops are collected
   in reverse and put in order when the region is closed. *)
type frame = { region : Op.region; mutable acc : Op.op list }
type t = { ctx : ctx; mutable stack : frame list }

let create (ctx : ctx) : t = { ctx; stack = [] }

let open_region (b : t) (args : Ty.t list) : Value.t list =
  let vargs = List.map (fresh_value b.ctx) args in
  let region = { Op.r_args = vargs; r_ops = [] } in
  b.stack <- { region; acc = [] } :: b.stack;
  vargs

let close_region (b : t) : Op.region =
  match b.stack with
  | [] -> invalid_arg "Builder.close_region: no open region"
  | f :: rest ->
      f.region.Op.r_ops <- List.rev f.acc;
      b.stack <- rest;
      f.region

let emit (b : t) (kind : Op.kind) ?(regions = [||]) (operands : Value.t list)
    (result_tys : Ty.t list) : Value.t list =
  match b.stack with
  | [] -> invalid_arg "Builder.emit: no open region"
  | f :: _ ->
      let results = List.map (fresh_value b.ctx) result_tys in
      let id = b.ctx.next_op in
      b.ctx.next_op <- id + 1;
      let op =
        {
          Op.o_id = id;
          kind;
          operands = Array.of_list operands;
          results = Array.of_list results;
          regions;
        }
      in
      f.acc <- op :: f.acc;
      results

let emit1 b kind ?regions operands result_ty =
  match emit b kind ?regions operands [ result_ty ] with
  | [ v ] -> v
  | _ -> assert false

let emit0 b kind ?regions operands =
  ignore (emit b kind ?regions operands [])

(* ------------------------------------------------------------------ *)
(* arith                                                               *)
(* ------------------------------------------------------------------ *)

let constf b f = emit1 b (Op.ConstF f) [] Ty.F64
let consti b i = emit1 b (Op.ConstI i) [] Ty.I64

let check_same what (x : Value.t) (y : Value.t) =
  if not (Ty.equal x.ty y.ty) then
    terr "%s: operand types differ (%a vs %a)" what Ty.pp x.ty Ty.pp y.ty

let binf b (k : Op.fbin) (x : Value.t) (y : Value.t) : Value.t =
  check_same (Op.fbin_name k) x y;
  if not (Ty.is_float_like x.ty) then
    terr "%s: expected float-like operands, got %a" (Op.fbin_name k) Ty.pp x.ty;
  emit1 b (Op.BinF k) [ x; y ] x.ty

let addf b = binf b Op.FAdd
let subf b = binf b Op.FSub
let mulf b = binf b Op.FMul
let divf b = binf b Op.FDiv
let minf b = binf b Op.FMin
let maxf b = binf b Op.FMax

let negf b (x : Value.t) : Value.t =
  if not (Ty.is_float_like x.ty) then terr "negf: expected float-like operand";
  emit1 b Op.NegF [ x ] x.ty

let bini b (k : Op.ibin) (x : Value.t) (y : Value.t) : Value.t =
  check_same (Op.ibin_name k) x y;
  if not (Ty.is_int_like x.ty) then terr "%s: expected i64" (Op.ibin_name k);
  emit1 b (Op.BinI k) [ x; y ] x.ty

let addi b = bini b Op.IAdd
let subi b = bini b Op.ISub
let muli b = bini b Op.IMul
let divi b = bini b Op.IDiv
let remi b = bini b Op.IRem

let binb b (k : Op.bbin) (x : Value.t) (y : Value.t) : Value.t =
  check_same (Op.bbin_name k) x y;
  if not (Ty.is_bool_like x.ty) then terr "%s: expected i1" (Op.bbin_name k);
  emit1 b (Op.BinB k) [ x; y ] x.ty

let andb b = binb b Op.BAnd
let orb b = binb b Op.BOr

let notb b (x : Value.t) : Value.t =
  if not (Ty.is_bool_like x.ty) then terr "not: expected i1";
  emit1 b Op.NotB [ x ] x.ty

let cmpf b (c : Op.cmp) (x : Value.t) (y : Value.t) : Value.t =
  check_same "cmpf" x y;
  if not (Ty.is_float_like x.ty) then terr "cmpf: expected float-like operands";
  emit1 b (Op.CmpF c) [ x; y ] (Ty.like ~like:x.ty Ty.I1)

let select b (c : Value.t) (x : Value.t) (y : Value.t) : Value.t =
  check_same "select" x y;
  if not (Ty.is_bool_like c.ty) then terr "select: condition must be i1-like";
  if not (Ty.is_float_like x.ty || Ty.is_bool_like x.ty) then
    terr "select: arms must be f64- or i1-like, got %a" Ty.pp x.ty;
  if Ty.width c.ty <> Ty.width x.ty then
    terr "select: condition width %d does not match value width %d"
      (Ty.width c.ty) (Ty.width x.ty);
  emit1 b Op.Select [ c; x; y ] x.ty

let sitofp b (x : Value.t) : Value.t =
  if not (Ty.is_int_like x.ty) then terr "sitofp: expected i64-like";
  emit1 b Op.SIToFP [ x ] (Ty.like ~like:x.ty Ty.F64)

(* ------------------------------------------------------------------ *)
(* math                                                                *)
(* ------------------------------------------------------------------ *)

let math b (name : string) (args : Value.t list) : Value.t =
  (match Easyml.Builtins.find name with
  | None -> terr "math.%s: unknown builtin" name
  | Some bi ->
      if bi.arity <> List.length args then
        terr "math.%s: expected %d args, got %d" name bi.arity
          (List.length args));
  let ty =
    match args with
    | [] -> terr "math.%s: no operands" name
    | a :: rest ->
        List.iter (check_same ("math." ^ name) a) rest;
        if not (Ty.is_float_like a.ty) then
          terr "math.%s: expected float-like operands" name;
        a.Value.ty
  in
  emit1 b (Op.Math name) args ty

(* ------------------------------------------------------------------ *)
(* vector                                                              *)
(* ------------------------------------------------------------------ *)

let broadcast b ~(width : int) (x : Value.t) : Value.t =
  if not (Ty.equal x.ty Ty.F64 || Ty.equal x.ty Ty.I64) then
    terr "broadcast: operand must be an f64 or i64 scalar";
  if width = 1 then x else emit1 b Op.Broadcast [ x ] (Ty.vec width x.ty)

let check_memref what (m : Value.t) =
  if not (Ty.equal m.ty Ty.Memref) then terr "%s: expected memref operand" what

let check_index what (i : Value.t) =
  if not (Ty.equal i.ty Ty.I64) then terr "%s: expected i64 index" what

let vec_load b ~(width : int) ~(mem : Value.t) ~(idx : Value.t) : Value.t =
  check_memref "vector.load" mem;
  check_index "vector.load" idx;
  emit1 b Op.VecLoad [ mem; idx ] (Ty.vec width Ty.F64)

let vec_store b ~(vec : Value.t) ~(mem : Value.t) ~(idx : Value.t) : unit =
  check_memref "vector.store" mem;
  check_index "vector.store" idx;
  (match vec.ty with
  | Ty.Vec (_, Ty.F64) -> ()
  | _ -> terr "vector.store: expected vector<wxf64> value");
  emit0 b Op.VecStore [ vec; mem; idx ]

let gather b ~(mem : Value.t) ~(idxs : Value.t) : Value.t =
  check_memref "vector.gather" mem;
  match idxs.ty with
  | Ty.Vec (w, Ty.I64) -> emit1 b Op.Gather [ mem; idxs ] (Ty.vec w Ty.F64)
  | _ -> terr "vector.gather: expected vector<wxi64> indices"

let scatter b ~(vec : Value.t) ~(mem : Value.t) ~(idxs : Value.t) : unit =
  check_memref "vector.scatter" mem;
  match (vec.ty, idxs.ty) with
  | Ty.Vec (w1, Ty.F64), Ty.Vec (w2, Ty.I64) when w1 = w2 ->
      emit0 b Op.Scatter [ vec; mem; idxs ]
  | _ -> terr "vector.scatter: expected matching vector<wxf64>/vector<wxi64>"

let iota b ~(width : int) : Value.t =
  if width < 2 then terr "vector.step: width must be >= 2";
  emit1 b (Op.Iota width) [] (Ty.vec width Ty.I64)

(* ------------------------------------------------------------------ *)
(* memref                                                              *)
(* ------------------------------------------------------------------ *)

let load b ~(mem : Value.t) ~(idx : Value.t) : Value.t =
  check_memref "memref.load" mem;
  check_index "memref.load" idx;
  emit1 b Op.MemLoad [ mem; idx ] Ty.F64

let store b (x : Value.t) ~(mem : Value.t) ~(idx : Value.t) : unit =
  check_memref "memref.store" mem;
  check_index "memref.store" idx;
  if not (Ty.equal x.ty Ty.F64) then terr "memref.store: expected f64 value";
  emit0 b Op.MemStore [ x; mem; idx ]

(* ------------------------------------------------------------------ *)
(* scf                                                                 *)
(* ------------------------------------------------------------------ *)

let for_ b ?(parallel = false) ~(lb : Value.t) ~(ub : Value.t)
    ~(step : Value.t) ~(inits : Value.t list)
    (body : iv:Value.t -> iters:Value.t list -> Value.t list) : Value.t list =
  check_index "scf.for lb" lb;
  check_index "scf.for ub" ub;
  check_index "scf.for step" step;
  let iter_tys = List.map (fun (v : Value.t) -> v.ty) inits in
  let args = open_region b (Ty.I64 :: iter_tys) in
  let iv, iters =
    match args with iv :: rest -> (iv, rest) | [] -> assert false
  in
  let yielded = body ~iv ~iters in
  let ytys = List.map (fun (v : Value.t) -> v.ty) yielded in
  if ytys <> iter_tys then terr "scf.for: yield types do not match iter types";
  emit0 b Op.Yield yielded;
  let region = close_region b in
  emit b (Op.For { parallel }) ~regions:[| region |]
    (lb :: ub :: step :: inits)
    iter_tys

(* ------------------------------------------------------------------ *)
(* func                                                                *)
(* ------------------------------------------------------------------ *)

let call b (m : Func.modl) (name : string) (args : Value.t list) : Value.t list
    =
  match Func.callee_sig m name with
  | None -> terr "func.call: unknown callee @%s" name
  | Some (ptys, rtys) ->
      let atys = List.map (fun (v : Value.t) -> v.ty) args in
      if atys <> ptys then
        terr "func.call @%s: argument types do not match signature" name;
      emit b (Op.Call name) args rtys

let ret b (vals : Value.t list) : unit = emit0 b Op.Return vals

(** Build a function: opens the body region with [params] argument types,
    runs [body] with the builder and the parameter values, and closes the
    region.  [body] must end with {!ret}. *)
let func (ctx : ctx) ~(name : string) ~(params : Ty.t list)
    ~(results : Ty.t list) (body : t -> Value.t list -> unit) : Func.func =
  let b = create ctx in
  let args = open_region b params in
  body b args;
  let region = close_region b in
  (match List.rev region.Op.r_ops with
  | { Op.kind = Op.Return; _ } :: _ -> ()
  | _ -> terr "func %s: body must end in func.return" name);
  { Func.f_name = name; f_params = args; f_results = results; f_body = region }
