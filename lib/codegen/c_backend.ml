(* C backend: lowered IR -> one self-contained C translation unit.

   Every SSA value becomes a C local ([v<id>]).  Scalars map to
   double/int64_t/int.  A vector value is one GCC/Clang vector-extension
   value: [f64x<w>] for vector<wxf64>, [i64x<w>] for vector<wxi64> and
   for vector<wxi1>, whose lanes are all-ones/zero masks as vector
   compares produce them; the prelude typedefs the widths the unit uses.
   Arithmetic, negation, compares, mask logic, selects (a bitwise blend
   on the mask: C has no vector ?:), broadcasts (an initializer list)
   and AoSoA loads/stores (unaligned memcpy) are single vector
   expressions, which cc maps onto the vector ISA Exec.Native.flags
   selects for the host.  Only ops with no exact whole-vector C form —
   libm calls, ml_fmin/ml_fmax, integer div/rem, int-to-float
   conversion, gathers, scatters, iota and the LUT helpers — run a
   constant-trip lane loop that subscripts the vector value.  scf.for
   becomes a plain countable [for].

   Bitwise parity with the OCaml engines is the design constraint, not an
   accident:
   - float constants print as C hex literals (exact bit patterns);
   - vector lanes see exactly the IEEE operations the OCaml engines apply
     per lane; a blend or broadcast moves bits, never computes on them;
   - math builtins map to the same libm entry points the interpreter's
     registry calls (OCaml's Float.exp etc. are direct libm externs), one
     scalar call per lane, and every transcendental among them is one of
     Exec.Native.libm_calls, whose -fno-builtin-<f> flags keep cc from
     evaluating it at compile time with MPFR instead of glibc;
   - fmin/fmax/min/max and arith.minf/maxf use OCaml Float.min/Float.max
     semantics (NaN-propagating, -0 < +0), emitted as ml_fmin/ml_fmax
     rather than C fmin/fmax (which differ on NaN);
   - LUT interpolation (linear + Catmull-Rom) is emitted inline as an
     operation-for-operation transcription of Runtime.Lut;
   - the unit is compiled with -ffp-contract=off -fno-fast-math (see
     Exec.Native.flags) so no FMA contraction or value-unsafe rewrite
     can perturb results. *)

open Ir

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let sanitize (s : string) : string =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    s

let symbol (name : string) : string = "limpet_" ^ sanitize name

(* static (internal) definition name for an IR function *)
let local_fn (name : string) : string = "k_" ^ sanitize name

let scalar_cty : Ty.t -> string = function
  | Ty.F64 -> "double"
  | Ty.I64 -> "int64_t"
  | Ty.I1 -> "int"
  | t -> unsupported "no scalar C type for %s" (Ty.to_string t)

(* The vector-extension typedef of a vector's lanes ([vector_typedefs]);
   i1 lanes are int64_t masks. *)
let vec_cty (w : int) : Ty.t -> string = function
  | Ty.F64 -> Printf.sprintf "f64x%d" w
  | Ty.I64 | Ty.I1 -> Printf.sprintf "i64x%d" w
  | t -> unsupported "no vector C type for %s" (Ty.to_string t)

let cty : Ty.t -> string = function
  | Ty.Vec (w, e) -> vec_cty w e
  | t -> scalar_cty t

(* Exact-bit float literals.  %h prints C99 hex floats; NaN/inf have no
   literal syntax, so synthesize them arithmetically (evaluated at
   compile time; the payload of the OCaml "nan" constant is the default
   quiet NaN either way once it flows through arithmetic). *)
let float_lit (f : float) : string =
  if Float.is_nan f then "(0.0 / 0.0)"
  else if f = Float.infinity then "(1.0 / 0.0)"
  else if f = Float.neg_infinity then "(-1.0 / 0.0)"
  else Printf.sprintf "%h" f

type ctx = {
  buf : Buffer.t;
  names : (int, string) Hashtbl.t; (* value id -> C local name *)
  locals : (string, unit) Hashtbl.t; (* names of module-local functions *)
}

let pr ctx ind fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * ind) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let vname ctx (v : Value.t) : string =
  match Hashtbl.find_opt ctx.names v.Value.id with
  | Some n -> n
  | None ->
      let n = Printf.sprintf "v%d" v.Value.id in
      Hashtbl.add ctx.names v.Value.id n;
      n

(* Declare (without initializing) storage for a value. *)
let decl ctx ind (v : Value.t) : unit =
  pr ctx ind "%s %s;" (cty v.Value.ty) (vname ctx v)

(* Declare [r] initialized to the C expression [e]. *)
let define ctx ind (r : Value.t) (e : string) : unit =
  pr ctx ind "%s %s = %s;" (cty r.Value.ty) (vname ctx r) e

(* Assign previously-declared [dst] from the local named [src] (vector
   values are assignable like scalars). *)
let assign ctx ind (dst : Value.t) (src : string) : unit =
  pr ctx ind "%s = %s;" (vname ctx dst) src

(* Lane [i] of [v] as a scalar (a scalar [v] stands for every lane). *)
let lane ctx (v : Value.t) (i : string) : string =
  match v.Value.ty with
  | Ty.Vec _ -> Printf.sprintf "%s[%s]" (vname ctx v) i
  | _ -> vname ctx v

let cmp_op : Op.cmp -> string = function
  | Op.Lt -> "<"
  | Op.Le -> "<="
  | Op.Gt -> ">"
  | Op.Ge -> ">="
  | Op.Eq -> "=="
  | Op.Ne -> "!="

let fbin_expr (k : Op.fbin) (a : string) (b : string) : string =
  match k with
  | Op.FAdd -> Printf.sprintf "(%s + %s)" a b
  | Op.FSub -> Printf.sprintf "(%s - %s)" a b
  | Op.FMul -> Printf.sprintf "(%s * %s)" a b
  | Op.FDiv -> Printf.sprintf "(%s / %s)" a b
  | Op.FMin -> Printf.sprintf "ml_fmin(%s, %s)" a b
  | Op.FMax -> Printf.sprintf "ml_fmax(%s, %s)" a b

let ibin_expr (k : Op.ibin) (a : string) (b : string) : string =
  (* OCaml (/) and (mod) truncate toward zero — exactly C's semantics. *)
  let op =
    match k with
    | Op.IAdd -> "+"
    | Op.ISub -> "-"
    | Op.IMul -> "*"
    | Op.IDiv -> "/"
    | Op.IRem -> "%"
  in
  Printf.sprintf "(%s %s %s)" a op b

let bbin_expr (k : Op.bbin) (a : string) (b : string) : string =
  (* bool-like values are canonical (0/1 scalars, all-ones/zero mask
     lanes), so bitwise ops implement the (non-short-circuiting, as in
     Lower) logical connectives *)
  let op = match k with Op.BAnd -> "&" | Op.BOr -> "|" in
  Printf.sprintf "(%s %s %s)" a op b

(* [c ? a : b] of type [ty].  On vectors it blends bits under the mask
   [c]: directly on i1 masks, through the lanes' integer view for f64. *)
let select_expr (ty : Ty.t) (c : string) (a : string) (b : string) : string =
  match ty with
  | Ty.Vec (w, Ty.F64) ->
      let m = vec_cty w Ty.I64 in
      Printf.sprintf "(%s)((%s & (%s)%s) | (~%s & (%s)%s))" (vec_cty w Ty.F64)
        c m a c m b
  | Ty.Vec _ -> Printf.sprintf "((%s & %s) | (~%s & %s))" c a c b
  | _ -> Printf.sprintf "(%s ? %s : %s)" c a b

(* One builtin registry mirror: must agree with Exec.Engine's
   unary_fn/binary_fn tables (same libm entry point, same argument
   order).  Arguments are local names — pure, safe to repeat.  The
   exactly-specified calls are listed here; the transcendentals come
   from Exec.Native.libm_calls, so none is emitted without its
   -fno-builtin flag. *)
let math_expr (name : string) (a : string array) : string =
  match (name, Array.length a) with
  | "square", 1 -> Printf.sprintf "(%s * %s)" a.(0) a.(0)
  | "cube", 1 -> Printf.sprintf "(%s * %s * %s)" a.(0) a.(0) a.(0)
  | ("fabs" | "abs"), 1 -> Printf.sprintf "fabs(%s)" a.(0)
  | ("min" | "fmin"), 2 -> Printf.sprintf "ml_fmin(%s, %s)" a.(0) a.(1)
  | ("max" | "fmax"), 2 -> Printf.sprintf "ml_fmax(%s, %s)" a.(0) a.(1)
  | "fmod", 2 -> Printf.sprintf "fmod(%s, %s)" a.(0) a.(1)
  | (("sqrt" | "floor" | "ceil" | "round" | "trunc") as f), 1 ->
      Printf.sprintf "%s(%s)" f a.(0)
  | f, n
    when List.mem f Exec.Native.libm_calls && n = Easyml.Builtins.arity_exn f
    ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (Array.to_list a))
  | _ -> unsupported "math builtin %s/%d has no C lowering" name (Array.length a)

let operand_names ctx (o : Op.op) : string array =
  Array.map (vname ctx) o.Op.operands

(* An op with no exact whole-vector C form: a scalar result is defined
   directly, a vector result by a constant-trip lane loop over its
   operands' lanes. *)
let emit_lanes ctx ind (o : Op.op) (f : string array -> string) : unit =
  let r = o.Op.results.(0) in
  match r.Value.ty with
  | Ty.Vec (w, _) ->
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s;" w (vname ctx r)
        (f (Array.map (fun v -> lane ctx v "l") o.Op.operands))
  | _ -> define ctx ind r (f (operand_names ctx o))

let rec emit_op ctx ind (o : Op.op) : unit =
  let a = lazy (operand_names ctx o) in
  let an k = (Lazy.force a).(k) in
  (* the same C expression on scalars and on whole vectors *)
  let expr e = define ctx ind o.Op.results.(0) e in
  match o.Op.kind with
  | Op.ConstF f -> expr (float_lit f)
  | Op.ConstI n -> expr (Printf.sprintf "INT64_C(%d)" n)
  | Op.BinF ((Op.FAdd | Op.FSub | Op.FMul | Op.FDiv) as k) ->
      expr (fbin_expr k (an 0) (an 1))
  | Op.BinF k -> emit_lanes ctx ind o (fun x -> fbin_expr k x.(0) x.(1))
  | Op.NegF -> expr (Printf.sprintf "(-%s)" (an 0))
  | Op.BinI ((Op.IAdd | Op.ISub | Op.IMul) as k) ->
      expr (ibin_expr k (an 0) (an 1))
  | Op.BinI k -> emit_lanes ctx ind o (fun x -> ibin_expr k x.(0) x.(1))
  | Op.BinB k -> expr (bbin_expr k (an 0) (an 1))
  | Op.NotB ->
      (* C's ! is scalar-only; ~ complements a mask *)
      (match o.Op.results.(0).Value.ty with
      | Ty.Vec _ -> expr (Printf.sprintf "(~%s)" (an 0))
      | _ -> expr (Printf.sprintf "(!%s)" (an 0)))
  | Op.CmpF c ->
      let e = Printf.sprintf "(%s %s %s)" (an 0) (cmp_op c) (an 1) in
      (match o.Op.results.(0).Value.ty with
      | Ty.Vec (w, _) -> expr (Printf.sprintf "(%s)%s" (vec_cty w Ty.I1) e)
      | _ -> expr e)
  | Op.Select ->
      expr (select_expr o.Op.results.(0).Value.ty (an 0) (an 1) (an 2))
  | Op.SIToFP ->
      emit_lanes ctx ind o (fun x -> Printf.sprintf "(double)%s" x.(0))
  | Op.Math (("square" | "cube") as m) -> expr (math_expr m (Lazy.force a))
  | Op.Math m -> emit_lanes ctx ind o (math_expr m)
  | Op.Broadcast ->
      (* an initializer, not [x + 0.0] (which turns -0.0 into +0.0) *)
      let w = Ty.width o.Op.results.(0).Value.ty in
      expr (Printf.sprintf "{%s}" (String.concat ", " (List.init w (fun _ -> an 0))))
  | Op.VecLoad ->
      let r = vname ctx o.Op.results.(0) in
      decl ctx ind o.Op.results.(0);
      pr ctx ind "memcpy(&%s, %s + %s, sizeof %s);" r (an 0) (an 1) r
  | Op.VecStore ->
      pr ctx ind "memcpy(%s + %s, &%s, sizeof %s);" (an 1) (an 2) (an 0) (an 0)
  | Op.Gather ->
      emit_lanes ctx ind o (fun x -> Printf.sprintf "%s[%s]" x.(0) x.(1))
  | Op.Scatter ->
      let v = o.Op.operands.(0) and idxs = o.Op.operands.(2) in
      pr ctx ind "for (int l = 0; l < %d; l++) %s[%s] = %s;"
        (Ty.width v.Value.ty) (an 1) (lane ctx idxs "l") (lane ctx v "l")
  | Op.Iota _ -> emit_lanes ctx ind o (fun _ -> "l")
  | Op.MemLoad -> expr (Printf.sprintf "%s[%s]" (an 0) (an 1))
  | Op.MemStore -> pr ctx ind "%s[%s] = %s;" (an 1) (an 2) (an 0)
  | Op.For _ ->
      let lb = an 0 and ub = an 1 and step = an 2 in
      let inits = Array.sub o.Op.operands 3 (Array.length o.Op.operands - 3) in
      let body = o.Op.regions.(0) in
      let iv, iters =
        match body.Op.r_args with
        | iv :: rest -> (iv, Array.of_list rest)
        | [] -> unsupported "scf.for region without induction variable"
      in
      (* results double as the loop-carried accumulators; iter args get
         their own storage so a yield can read old values safely *)
      Array.iteri
        (fun k (res : Value.t) ->
          decl ctx ind res;
          assign ctx ind res (vname ctx inits.(k)))
        o.Op.results;
      let ivn = vname ctx iv in
      pr ctx ind "for (int64_t %s = %s; %s < %s; %s += %s) {" ivn lb ivn ub ivn
        step;
      Array.iteri
        (fun k (arg : Value.t) ->
          decl ctx (ind + 1) arg;
          assign ctx (ind + 1) arg (vname ctx o.Op.results.(k)))
        iters;
      emit_region ctx (ind + 1) body ~on_yield:(fun ys ->
          Array.iteri
            (fun k (y : Value.t) ->
              assign ctx (ind + 1) o.Op.results.(k) (vname ctx y))
            ys);
      pr ctx ind "}"
  | Op.Yield -> unsupported "stray scf.yield outside a loop"
  | Op.Return -> unsupported "nested func.return"
  | Op.Call callee ->
      if Array.length o.Op.results > 0 then
        unsupported "call to %s with results" callee;
      if Hashtbl.mem ctx.locals callee then
        pr ctx ind "%s(%s);" (local_fn callee)
          (String.concat ", " (Array.to_list (Lazy.force a)))
      else emit_extern_call ctx ind callee o

and emit_region ctx ind (r : Op.region) ~(on_yield : Value.t array -> unit) :
    unit =
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Yield -> on_yield o.Op.operands
      | _ -> emit_op ctx ind o)
    r.Op.r_ops

and emit_extern_call ctx ind (callee : string) (o : Op.op) : unit =
  match callee with
  | "lut_interp" | "lut_interp_vec" | "lut_interp_cubic" | "lut_interp_cubic_vec"
    ->
      (* (table, row, x, lo, step, rows, cols); one helper call per lane
         of the lookup operand, which fills that lane of the row *)
      let a = operand_names ctx o in
      let helper =
        if callee = "lut_interp_cubic" || callee = "lut_interp_cubic_vec" then
          "lut_cubic"
        else "lut_linear"
      in
      let call ind x w l =
        pr ctx ind "%s(%s, %s, %s, %s, %s, %s, %s, %d, %s);" helper a.(0) a.(1)
          x a.(3) a.(4) a.(5) a.(6) w l
      in
      let x = o.Op.operands.(2) in
      (match x.Value.ty with
      | Ty.Vec (w, Ty.F64) ->
          pr ctx ind "for (int l = 0; l < %d; l++) {" w;
          call (ind + 1) (lane ctx x "l") w "l";
          pr ctx ind "}"
      | Ty.F64 -> call ind a.(2) 1 "0"
      | t -> unsupported "%s lookup operand of type %s" callee (Ty.to_string t))
  | _ -> unsupported "extern %s has no C lowering" callee

(* ------------------------------------------------------------------ *)
(* Prelude: OCaml Float.min/max semantics + Runtime.Lut transcription  *)
(* ------------------------------------------------------------------ *)

let minmax_helpers =
  {|/* OCaml Float.min / Float.max semantics (NaN-propagating, -0. < +0.);
   deliberately NOT C fmin/fmax, which return the non-NaN argument. */
static inline double ml_fmin(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;
  return (x != x) ? x : y;
}
static inline double ml_fmax(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;
  return (y != y) ? y : x;
}
|}

(* Operation-for-operation transcription of Runtime.Lut.interp_row /
   interp_row_vec (row-major table, vector row buffer column-major by
   lane) and the Catmull-Rom variants.  A call interpolates at [x] into
   lane [l] of a row of [w] lanes per column ([w] = 1, [l] = 0: a scalar
   row).  Index/fraction clamping and the evaluation order of the spline
   polynomial match the OCaml source exactly so results are bitwise
   identical. *)
let lut_linear_helpers =
  {|static void lut_linear(const double *restrict tab, double *restrict row,
                       double x, double lo, double step,
                       int64_t rows, int64_t cols, int w, int l) {
  double pos = (x - lo) / step;
  int64_t idx;
  double frac;
  if (pos <= 0.0) { idx = 0; frac = 0.0; }
  else if (pos >= (double)(rows - 1)) { idx = rows - 2; frac = 1.0; }
  else if (isnan(pos)) { idx = 0; frac = pos; }
  else { idx = (int64_t)floor(pos); frac = pos - (double)idx; }
  const double *r0 = tab + idx * cols;
  const double *r1 = r0 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c * w + l] = r0[c] + frac * (r1[c] - r0[c]);
}
|}

let lut_cubic_helpers =
  {|static inline void lut_locate_cubic(double pos, int64_t rows,
                                    int64_t *idx, double *u) {
  if (pos <= 1.0) { *idx = 1; *u = ml_fmax(-1.0, pos - 1.0); }
  else if (pos >= (double)(rows - 3)) {
    *idx = rows - 3;
    *u = ml_fmin(2.0, pos - (double)(rows - 3));
  } else if (isnan(pos)) {
    *idx = 1;
    *u = pos;
  } else {
    *idx = (int64_t)floor(pos);
    *u = pos - (double)*idx;
  }
}

static inline double catmull_rom(double p0, double p1, double p2, double p3,
                                 double u) {
  double a = (-0.5 * p0) + (1.5 * p1) - (1.5 * p2) + (0.5 * p3);
  double b = p0 - (2.5 * p1) + (2.0 * p2) - (0.5 * p3);
  double c = (-0.5 * p0) + (0.5 * p2);
  return p1 + (u * (c + (u * (b + (u * a)))));
}

static void lut_cubic(const double *restrict tab, double *restrict row,
                      double x, double lo, double step,
                      int64_t rows, int64_t cols, int w, int l) {
  if (rows < 4) {
    lut_linear(tab, row, x, lo, step, rows, cols, w, l);
    return;
  }
  int64_t idx;
  double u;
  lut_locate_cubic((x - lo) / step, rows, &idx, &u);
  const double *q0 = tab + (idx - 1) * cols;
  const double *q1 = q0 + cols;
  const double *q2 = q1 + cols;
  const double *q3 = q2 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c * w + l] = catmull_rom(q0[c], q1[c], q2[c], q3[c], u);
}
|}

(* ------------------------------------------------------------------ *)
(* Functions and wrappers                                              *)
(* ------------------------------------------------------------------ *)

let natural_sig ctx (f : Func.func) : string =
  if f.Func.f_results <> [] then
    unsupported "function %s returns values" f.Func.f_name;
  let params =
    List.map
      (fun (p : Value.t) ->
        match p.Value.ty with
        | Ty.Memref -> Printf.sprintf "double *restrict %s" (vname ctx p)
        | (Ty.F64 | Ty.I64 | Ty.I1) as t ->
            Printf.sprintf "%s %s" (scalar_cty t) (vname ctx p)
        | Ty.Vec _ ->
            unsupported "function %s has a vector-typed parameter"
              f.Func.f_name)
      f.Func.f_params
  in
  Printf.sprintf "static void %s(%s)" (local_fn f.Func.f_name)
    (match params with [] -> "void" | ps -> String.concat ", " ps)

let emit_func ctx (f : Func.func) : unit =
  pr ctx 0 "%s {" (natural_sig ctx f);
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Return ->
          if Array.length o.Op.operands > 0 then
            unsupported "func.return with values in %s" f.Func.f_name
      | Op.Yield -> unsupported "scf.yield at function scope"
      | _ -> emit_op ctx 1 o)
    f.Func.f_body.Op.r_ops;
  pr ctx 0 "}";
  pr ctx 0 ""

(* Packed-ABI wrapper: scalar int-like args from [ia], float args from
   [fa], memrefs from [ma], each class in declaration order.  Must agree
   with Exec.Native.bind's marshalling. *)
let emit_wrapper ctx (f : Func.func) : unit =
  pr ctx 0 "void %s(const int64_t *ia, const double *fa, double *const *ma) {"
    (symbol f.Func.f_name);
  let ki = ref 0 and kf = ref 0 and km = ref 0 in
  let args =
    List.map
      (fun (p : Value.t) ->
        let take k = let i = !k in incr k; i in
        match p.Value.ty with
        | Ty.I64 -> Printf.sprintf "ia[%d]" (take ki)
        | Ty.I1 -> Printf.sprintf "(int)ia[%d]" (take ki)
        | Ty.F64 -> Printf.sprintf "fa[%d]" (take kf)
        | Ty.Memref -> Printf.sprintf "ma[%d]" (take km)
        | Ty.Vec _ ->
            unsupported "function %s has a vector-typed parameter"
              f.Func.f_name)
      f.Func.f_params
  in
  if !ki = 0 then pr ctx 1 "(void)ia;";
  if !kf = 0 then pr ctx 1 "(void)fa;";
  if !km = 0 then pr ctx 1 "(void)ma;";
  pr ctx 1 "%s(%s);" (local_fn f.Func.f_name) (String.concat ", " args);
  pr ctx 0 "}";
  pr ctx 0 ""

let uses_luts (m : Func.modl) : bool * bool =
  let linear = ref false and cubic = ref false in
  List.iter
    (fun (f : Func.func) ->
      Op.iter_region
        (fun o ->
          match o.Op.kind with
          | Op.Call ("lut_interp" | "lut_interp_vec") -> linear := true
          | Op.Call ("lut_interp_cubic" | "lut_interp_cubic_vec") ->
              cubic := true
          | _ -> ())
        f.Func.f_body)
    m.Func.m_funcs;
  (!linear || !cubic, !cubic)

(* The vector widths of the module's values, ascending.  Every value is
   an op result or typed like one (loop-carried arguments like their
   loop's results; parameters are never vectors). *)
let vector_widths (m : Func.modl) : int list =
  List.concat_map
    (fun (f : Func.func) ->
      Op.fold_region
        (fun acc o ->
          Array.fold_left
            (fun acc (v : Value.t) ->
              match v.Value.ty with Ty.Vec (w, _) -> w :: acc | _ -> acc)
            acc o.Op.results)
        [] f.Func.f_body)
    m.Func.m_funcs
  |> List.sort_uniq compare

let emit_module ?(banner = []) (m : Func.modl) : string =
  let ctx =
    {
      buf = Buffer.create 8192;
      names = Hashtbl.create 256;
      locals = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (f : Func.func) -> Hashtbl.replace ctx.locals f.Func.f_name ())
    m.Func.m_funcs;
  pr ctx 0 "/* Generated by the limpetmlir C backend — do not edit. */";
  List.iter
    (fun line ->
      (* a stray comment terminator in a banner line must not break the
         translation unit *)
      let safe =
        String.init (String.length line) (fun i ->
            if line.[i] = '*' && i + 1 < String.length line && line.[i + 1] = '/'
            then '+'
            else line.[i])
      in
      pr ctx 0 "/* %s */" safe)
    banner;
  pr ctx 0 "";
  pr ctx 0 "#include <stdint.h>";
  pr ctx 0 "#include <math.h>";
  pr ctx 0 "#include <string.h>";
  pr ctx 0 "";
  (* one f64 and one i64 vector type per width; gcc and clang take
     power-of-two lane counts only *)
  List.iter
    (fun w ->
      if w land (w - 1) <> 0 then
        unsupported "vector width %d is not a power of two" w;
      pr ctx 0 "typedef double %s __attribute__((vector_size(%d)));"
        (vec_cty w Ty.F64) (8 * w);
      pr ctx 0 "typedef int64_t %s __attribute__((vector_size(%d)));"
        (vec_cty w Ty.I64) (8 * w);
      pr ctx 0 "")
    (vector_widths m);
  Buffer.add_string ctx.buf minmax_helpers;
  Buffer.add_char ctx.buf '\n';
  let any_lut, cubic = uses_luts m in
  if any_lut then (
    Buffer.add_string ctx.buf lut_linear_helpers;
    Buffer.add_char ctx.buf '\n');
  if cubic then (
    Buffer.add_string ctx.buf lut_cubic_helpers;
    Buffer.add_char ctx.buf '\n');
  (* prototypes first so local calls resolve in any order *)
  List.iter (fun f -> pr ctx 0 "%s;" (natural_sig ctx f)) m.Func.m_funcs;
  pr ctx 0 "";
  List.iter (emit_func ctx) m.Func.m_funcs;
  List.iter (emit_wrapper ctx) m.Func.m_funcs;
  Buffer.contents ctx.buf
