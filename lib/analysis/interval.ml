(** Value-range analysis over the IR (the framework's flagship client).

    Every SSA value gets an abstract value:
    - float-like values (scalars or all lanes of a vector jointly) get a
      float interval with NaN flag ({!Itv.F});
    - int-like values get a congruence interval ({!Itv.I}) — precise
      enough to push the AoSoA address polynomial
      [(iv/w)·nvars·w + k·w + iv mod w] through exactly when [iv] is
      known to be [w]-aligned;
    - bool-like values get a can-be-true/can-be-false pair;
    - memrefs get a symbolic {e origin} (the parameter they came from),
      the handle the footprint and bounds clients key their summaries on.

    The transfer function interprets every arith/math/vector/memref op;
    math builtins get per-function interval semantics (monotone
    envelopes for [exp]/[tanh]/..., domain-aware NaN for [log]/[sqrt]/
    [asin]/...), everything unknown degrades to top-with-NaN. *)

open Ir
module F = Itv.F
module I = Itv.I

type origin =
  | Oparam of int  (** i-th function parameter *)
  | Ounknown

let origin_equal (a : origin) (b : origin) = a = b

let pp_origin ppf = function
  | Oparam i -> Fmt.pf ppf "param%d" i
  | Ounknown -> Fmt.string ppf "?"

type v =
  | AF of F.t
  | AI of I.t
  | AB of { cant : bool; canf : bool }
  | AM of origin
  | Atop

let ab_top = AB { cant = true; canf = true }
let ab_const b = AB { cant = b; canf = not b }

let top_for_ty (ty : Ty.t) : v =
  let rec go = function
    | Ty.F64 -> AF F.top
    | Ty.I64 -> AI I.top
    | Ty.I1 -> ab_top
    | Ty.Vec (_, e) -> go e
    | Ty.Memref -> AM Ounknown
  in
  go ty

(* Coercions: type-correct IR only ever hits the matching arm; anything
   else degrades to top of the expected class. *)
let af = function AF x -> x | _ -> F.top
let ai = function AI x -> x | _ -> I.top
let ab = function AB b -> (b.cant, b.canf) | _ -> (true, true)
let origin_of = function AM o -> o | _ -> Ounknown

(* ------------------------------------------------------------------ *)
(* Math builtin transfers                                              *)
(* ------------------------------------------------------------------ *)

let absf (a : F.t) : F.t =
  if F.range_empty a then a
  else
    let al = Float.abs a.F.lo and ah = Float.abs a.F.hi in
    {
      F.lo = (if F.contains_zero a then 0.0 else Float.min al ah);
      hi = Float.max al ah;
      nan = a.F.nan;
    }

(* f monotone on [dmin, +oo); arguments below [dmin] produce NaN, at
   [dmin] possibly -oo (log 0).  Covers log-family, sqrt. *)
let domain_mono (f : float -> float) (dmin : float) (a : F.t) : F.t =
  if F.is_bot a then a
  else
    let nan = a.F.nan || a.F.lo < dmin in
    if F.range_empty a || a.F.hi < dmin then { F.bot with nan }
    else
      let lo = Float.max a.F.lo dmin in
      let r = F.mono f { F.lo = lo; hi = a.F.hi; nan = false } in
      { r with F.nan = nan }

(* f monotone on [dlo, dhi]; outside produces NaN (asin/acos domain). *)
let domain_mono2 (f : float -> float) dlo dhi ~(decreasing : bool) (a : F.t) :
    F.t =
  if F.is_bot a then a
  else
    let nan = a.F.nan || a.F.lo < dlo || a.F.hi > dhi in
    if F.range_empty a || a.F.hi < dlo || a.F.lo > dhi then { F.bot with nan }
    else
      let lo = Float.max a.F.lo dlo and hi = Float.min a.F.hi dhi in
      if decreasing then { F.lo = f hi; hi = f lo; nan }
      else { F.lo = f lo; hi = f hi; nan }

let bounded_wave (a : F.t) : F.t =
  (* sin/cos: [-1,1]; NaN at infinities *)
  if F.is_bot a then a
  else
    let nan = a.F.nan || F.contains_inf a in
    if F.range_empty a then { F.bot with nan } else { F.lo = -1.0; hi = 1.0; nan }

(** Interval semantics of a named math builtin.  Shared with the EasyML
    lint's AST evaluator, so model-level and IR-level range reasoning
    agree by construction. *)
let math_itv (name : string) (args : F.t list) : F.t =
  match (name, args) with
  | "exp", [ a ] -> F.mono Float.exp a
  | "expm1", [ a ] -> F.mono Float.expm1 a
  | "log", [ a ] -> domain_mono Float.log 0.0 a
  | "log1p", [ a ] -> domain_mono Float.log1p (-1.0) a
  | "log10", [ a ] -> domain_mono Float.log10 0.0 a
  | "log2", [ a ] -> domain_mono Float.log2 0.0 a
  | "sqrt", [ a ] -> domain_mono Float.sqrt 0.0 a
  | "cbrt", [ a ] -> F.mono Float.cbrt a
  | "square", [ a ] -> F.mono (fun x -> x *. x) (absf a)
  | "cube", [ a ] -> F.mono (fun x -> x *. x *. x) a
  | ("fabs" | "abs"), [ a ] -> absf a
  | "floor", [ a ] -> F.mono Float.floor a
  | "ceil", [ a ] -> F.mono Float.ceil a
  | "round", [ a ] -> F.mono Float.round a
  | "trunc", [ a ] -> F.mono Float.trunc a
  | ("sin" | "cos"), [ a ] -> bounded_wave a
  | "tan", [ a ] ->
      if F.is_bot a then a else { F.lo = neg_infinity; hi = infinity; nan = true }
  | "tanh", [ a ] -> F.mono Float.tanh a
  | "sinh", [ a ] -> F.mono Float.sinh a
  | "cosh", [ a ] -> F.mono Float.cosh (absf a)
  | "asin", [ a ] -> domain_mono2 Float.asin (-1.0) 1.0 ~decreasing:false a
  | "acos", [ a ] -> domain_mono2 Float.acos (-1.0) 1.0 ~decreasing:true a
  | "atan", [ a ] -> F.mono Float.atan a
  | "atan2", [ a; b ] ->
      if F.is_bot a || F.is_bot b then F.bot
      else { F.lo = -4.0; hi = 4.0; nan = a.F.nan || b.F.nan }
  | "pow", [ a; b ] ->
      if F.is_bot a || F.is_bot b then F.bot
      else { F.lo = neg_infinity; hi = infinity; nan = true }
  | "fmod", [ a; b ] -> F.rem a b
  | ("min" | "fmin"), [ a; b ] -> F.min_ a b
  | ("max" | "fmax"), [ a; b ] -> F.max_ a b
  | "hypot", [ a; b ] ->
      if F.is_bot a || F.is_bot b then F.bot
      else { F.lo = 0.0; hi = infinity; nan = a.F.nan || b.F.nan }
  | _ -> F.top

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

let cmpf (c : Op.cmp) (a : F.t) (b : F.t) : v =
  if F.is_bot a || F.is_bot b then AB { cant = false; canf = false }
  else if F.range_empty a || F.range_empty b then
    (* at least one operand is definitely NaN: IEEE makes every
       comparison false except [<>] *)
    (match c with Op.Ne -> ab_const true | _ -> ab_const false)
  else
    let singles = a.F.lo = a.F.hi && b.F.lo = b.F.hi in
    let overlapping = a.F.lo <= b.F.hi && b.F.lo <= a.F.hi in
    let ct, cf =
      match c with
      | Op.Lt -> (a.F.lo < b.F.hi, a.F.hi >= b.F.lo)
      | Op.Le -> (a.F.lo <= b.F.hi, a.F.hi > b.F.lo)
      | Op.Gt -> (a.F.hi > b.F.lo, a.F.lo <= b.F.hi)
      | Op.Ge -> (a.F.hi >= b.F.lo, a.F.lo < b.F.hi)
      | Op.Eq -> (overlapping, not (singles && a.F.lo = b.F.lo))
      | Op.Ne -> (not (singles && a.F.lo = b.F.lo), overlapping)
    in
    if a.F.nan || b.F.nan then
      match c with
      | Op.Ne -> AB { cant = true; canf = cf }
      | _ -> AB { cant = ct; canf = true }
    else AB { cant = ct; canf = cf }

(* ------------------------------------------------------------------ *)
(* The dataflow client                                                 *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type nonrec v = v

  let top = Atop

  let is_bot = function
    | AF a -> F.is_bot a
    | AI a -> I.is_bot a
    | AB b -> (not b.cant) && not b.canf
    | AM _ | Atop -> false

  let join (x : v) (y : v) : v =
    match (x, y) with
    | AF a, AF b -> AF (F.join a b)
    | AI a, AI b -> AI (I.join a b)
    | AB a, AB b -> AB { cant = a.cant || b.cant; canf = a.canf || b.canf }
    | AM a, AM b -> if origin_equal a b then x else AM Ounknown
    | _ -> Atop

  let widen (_old : v) (next : v) : v =
    match next with
    | AF _ -> AF F.top
    | AI _ -> AI I.top
    | AB _ -> ab_top
    | (AM _ | Atop) as x -> x

  let equal (x : v) (y : v) : bool =
    match (x, y) with
    | AF a, AF b -> F.equal a b
    | AI a, AI b -> I.equal a b
    | AB a, AB b -> a.cant = b.cant && a.canf = b.canf
    | AM a, AM b -> origin_equal a b
    | Atop, Atop -> true
    | _ -> false

  let pp ppf = function
    | AF a -> F.pp ppf a
    | AI a -> I.pp ppf a
    | AB { cant; canf } ->
        Fmt.pf ppf "%s"
          (match (cant, canf) with
          | true, true -> "bool"
          | true, false -> "true"
          | false, true -> "false"
          | false, false -> "_|_")
    | AM o -> Fmt.pf ppf "memref(%a)" pp_origin o
    | Atop -> Fmt.string ppf "T"

  type ctx = unit

  let param () (i : int) (p : Value.t) : v =
    match p.Value.ty with Ty.Memref -> AM (Oparam i) | ty -> top_for_ty ty

  let transfer () ~(get : Value.t -> v) (o : Op.op) : v array =
    let one x = [| x |] in
    let opv i = get o.Op.operands.(i) in
    let res_default () =
      Array.map (fun (r : Value.t) -> top_for_ty r.Value.ty) o.Op.results
    in
    match o.Op.kind with
    | Op.ConstF f -> one (AF (F.const f))
    | Op.ConstI n -> one (AI (I.const n))
    | Op.BinF fb ->
        let a = af (opv 0) and b = af (opv 1) in
        let r =
          match fb with
          | Op.FAdd -> F.add a b
          | Op.FSub -> F.sub a b
          | Op.FMul -> F.mul a b
          | Op.FDiv -> F.div a b
          | Op.FMin -> F.min_ a b
          | Op.FMax -> F.max_ a b
        in
        one (AF r)
    | Op.NegF -> one (AF (F.neg (af (opv 0))))
    | Op.BinI ib ->
        let a = ai (opv 0) and b = ai (opv 1) in
        let r =
          match ib with
          | Op.IAdd -> I.add a b
          | Op.ISub -> I.sub a b
          | Op.IMul -> I.mul a b
          | Op.IDiv -> I.div a b
          | Op.IRem -> I.rem a b
        in
        one (AI r)
    | Op.BinB bb ->
        let ct1, cf1 = ab (opv 0) and ct2, cf2 = ab (opv 1) in
        let r =
          match bb with
          | Op.BAnd -> AB { cant = ct1 && ct2; canf = cf1 || cf2 }
          | Op.BOr -> AB { cant = ct1 || ct2; canf = cf1 && cf2 }
        in
        one r
    | Op.NotB ->
        let ct, cf = ab (opv 0) in
        one (AB { cant = cf; canf = ct })
    | Op.CmpF c -> one (cmpf c (af (opv 0)) (af (opv 1)))
    | Op.Select ->
        let ct, cf = ab (opv 0) in
        let t = opv 1 and e = opv 2 in
        one
          (if ct && cf then join t e
           else if ct then t
           else if cf then e
           else (* condition unreachable *) t)
    | Op.SIToFP ->
        let a = ai (opv 0) in
        if I.is_bot a then one (AF F.bot)
        else
          let conv sentinel x =
            if x = min_int then neg_infinity
            else if x = max_int then infinity
            else float_of_int x |> fun f -> if Float.is_nan f then sentinel else f
          in
          one
            (AF
               {
                 F.lo = conv neg_infinity a.I.lo;
                 hi = conv infinity a.I.hi;
                 nan = false;
               })
    | Op.Math name ->
        one (AF (math_itv name (List.map af (Array.to_list (Array.map get o.Op.operands)))))
    | Op.Broadcast -> one (opv 0)
    | Op.Iota w -> one (AI (I.range 0 (w - 1)))
    | Op.VecLoad | Op.MemLoad | Op.Gather -> one (AF F.top)
    | Op.VecStore | Op.MemStore | Op.Scatter -> [||]
    | Op.Call _ | Op.Return | Op.Yield | Op.For _ -> res_default ()

  let loop_iv () ~(lb : v) ~(ub : v) ~(step : v) : v =
    let l = ai lb and u = ai ub and s = ai step in
    if I.is_bot l || I.is_bot u || I.is_bot s then AI I.bot
    else if u.I.hi <= l.I.lo then AI I.bot (* provably zero iterations *)
    else
      let ml, rl = I.cong l in
      let m =
        if I.is_const s && s.I.lo > 0 then
          (* iv ≡ lb (mod step); fold in lb's own congruence *)
          if ml = 0 then s.I.lo else Itv.gcd s.I.lo ml
        else 1
      in
      AI (I.mk l.I.lo (Itv.sat_sub u.I.hi 1) m rl)
end

module Solver = Dataflow.Make (Client)

let join = Client.join

type state = Solver.state

let analyze_func ?seed ?visit (f : Func.func) : state =
  Solver.analyze_func ?seed ?visit () f

let get = Solver.get
let float_itv (st : state) (x : Value.t) : F.t = af (get st x)
let int_itv (st : state) (x : Value.t) : I.t = ai (get st x)
let mem_origin (st : state) (x : Value.t) : origin = origin_of (get st x)
