(* C backend: lowered IR -> one self-contained C translation unit.

   Every SSA value becomes a C local ([v<id>]); scalars map to
   double/int64_t/int, vectors to fixed-size stack arrays written by
   constant-trip-count lane loops that cc -O3 unrolls and SLP-vectorizes.
   scf.for becomes a plain countable [for] (the compute kernel's parallel
   tile loop auto-vectorizes), scf.if becomes an if/else assigning
   pre-declared result locals.

   Bitwise parity with the OCaml engines is the design constraint, not an
   accident:
   - float constants print as C hex literals (exact bit patterns);
   - math builtins map to the same libm entry points the interpreter's
     registry calls (OCaml's Float.exp etc. are direct libm externs), and
     every transcendental among them is one of Exec.Native.libm_calls,
     whose -fno-builtin-<f> flags keep cc from evaluating it at compile
     time with MPFR instead of glibc;
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
  match v.Value.ty with
  | Ty.Vec (w, e) -> pr ctx ind "%s %s[%d];" (scalar_cty e) (vname ctx v) w
  | t -> pr ctx ind "%s %s;" (scalar_cty t) (vname ctx v)

(* Assign previously-declared [dst] from the local named [src]
   (element-wise for vectors — C arrays are not assignable). *)
let assign ctx ind (dst : Value.t) (src : string) : unit =
  match dst.Value.ty with
  | Ty.Vec (w, _) ->
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s[l];" w
        (vname ctx dst) src
  | _ -> pr ctx ind "%s = %s;" (vname ctx dst) src

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
  | Op.FRem -> Printf.sprintf "fmod(%s, %s)" a b

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
  (* bool-like values are canonical 0/1, so bitwise ops implement the
     (non-short-circuiting, as in Lower) logical connectives *)
  let op = match k with Op.BAnd -> "&" | Op.BOr -> "|" | Op.BXor -> "^" in
  Printf.sprintf "(%s %s %s)" a op b

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

(* Element-wise op: scalar result defines a local directly; vector result
   declares an array and fills it with a constant-bound lane loop.
   Scalar operands inside a vector op (none today post-verifier) stay
   unindexed. *)
let emit_ew ctx ind (o : Op.op) (f : string array -> string) : unit =
  let r = o.Op.results.(0) in
  match r.Value.ty with
  | Ty.Vec (w, _) ->
      decl ctx ind r;
      let elems =
        Array.map
          (fun (v : Value.t) ->
            match v.Value.ty with
            | Ty.Vec _ -> vname ctx v ^ "[l]"
            | _ -> vname ctx v)
          o.Op.operands
      in
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s;" w (vname ctx r)
        (f elems)
  | t ->
      pr ctx ind "%s %s = %s;" (scalar_cty t) (vname ctx r)
        (f (operand_names ctx o))

let rec emit_op ctx ind (o : Op.op) : unit =
  let a = lazy (operand_names ctx o) in
  let an k = (Lazy.force a).(k) in
  match o.Op.kind with
  | Op.ConstF f -> emit_ew ctx ind o (fun _ -> float_lit f)
  | Op.ConstI n -> emit_ew ctx ind o (fun _ -> Printf.sprintf "INT64_C(%d)" n)
  | Op.ConstB b -> emit_ew ctx ind o (fun _ -> if b then "1" else "0")
  | Op.BinF k -> emit_ew ctx ind o (fun x -> fbin_expr k x.(0) x.(1))
  | Op.NegF -> emit_ew ctx ind o (fun x -> Printf.sprintf "(-%s)" x.(0))
  | Op.BinI k -> emit_ew ctx ind o (fun x -> ibin_expr k x.(0) x.(1))
  | Op.BinB k -> emit_ew ctx ind o (fun x -> bbin_expr k x.(0) x.(1))
  | Op.NotB -> emit_ew ctx ind o (fun x -> Printf.sprintf "(!%s)" x.(0))
  | Op.CmpF c | Op.CmpI c ->
      emit_ew ctx ind o (fun x ->
          Printf.sprintf "(%s %s %s)" x.(0) (cmp_op c) x.(1))
  | Op.Select ->
      emit_ew ctx ind o (fun x ->
          Printf.sprintf "(%s ? %s : %s)" x.(0) x.(1) x.(2))
  | Op.SIToFP -> emit_ew ctx ind o (fun x -> Printf.sprintf "(double)%s" x.(0))
  | Op.FPToSI ->
      (* OCaml int_of_float truncates toward zero, as does the C cast *)
      emit_ew ctx ind o (fun x -> Printf.sprintf "(int64_t)%s" x.(0))
  | Op.Math m -> emit_ew ctx ind o (math_expr m)
  | Op.Broadcast ->
      let r = o.Op.results.(0) in
      let w = Ty.width r.Value.ty in
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s;" w (vname ctx r)
        (an 0)
  | Op.VecExtract lane ->
      let r = o.Op.results.(0) in
      pr ctx ind "%s %s = %s[%d];"
        (scalar_cty r.Value.ty)
        (vname ctx r) (an 0) lane
  | Op.VecLoad ->
      let r = o.Op.results.(0) in
      let w = Ty.width r.Value.ty in
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s[%s + l];" w
        (vname ctx r) (an 0) (an 1)
  | Op.VecStore ->
      let w = Ty.width o.Op.operands.(0).Value.ty in
      pr ctx ind "for (int l = 0; l < %d; l++) %s[%s + l] = %s[l];" w (an 1)
        (an 2) (an 0)
  | Op.Gather ->
      let r = o.Op.results.(0) in
      let w = Ty.width r.Value.ty in
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s[%s[l]];" w
        (vname ctx r) (an 0) (an 1)
  | Op.Scatter ->
      let w = Ty.width o.Op.operands.(0).Value.ty in
      pr ctx ind "for (int l = 0; l < %d; l++) %s[%s[l]] = %s[l];" w (an 1)
        (an 2) (an 0)
  | Op.Iota _ ->
      let r = o.Op.results.(0) in
      let w = Ty.width r.Value.ty in
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = l;" w (vname ctx r)
  | Op.Alloc -> unsupported "memref.alloc has no C lowering"
  | Op.MemLoad ->
      let r = o.Op.results.(0) in
      pr ctx ind "double %s = %s[%s];" (vname ctx r) (an 0) (an 1)
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
  | Op.If ->
      let cond = an 0 in
      Array.iter (decl ctx ind) o.Op.results;
      let arm k =
        emit_region ctx (ind + 1)
          o.Op.regions.(k)
          ~on_yield:(fun ys ->
            Array.iteri
              (fun i (y : Value.t) ->
                assign ctx (ind + 1) o.Op.results.(i) (vname ctx y))
              ys)
      in
      pr ctx ind "if (%s) {" cond;
      arm 0;
      if
        Array.length o.Op.regions > 1
        && (o.Op.regions.(1).Op.r_ops <> [] || Array.length o.Op.results > 0)
      then (
        pr ctx ind "} else {";
        arm 1);
      pr ctx ind "}"
  | Op.Yield -> unsupported "stray scf.yield outside a structured op"
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
      (* (table, row, x, lo, step, rows, cols); dispatch scalar/vector on
         the lookup operand's actual shape *)
      let a = operand_names ctx o in
      let cubic = callee = "lut_interp_cubic" || callee = "lut_interp_cubic_vec" in
      (match o.Op.operands.(2).Value.ty with
      | Ty.Vec (w, Ty.F64) ->
          pr ctx ind "%s(%s, %s, %s, %d, %s, %s, %s, %s);"
            (if cubic then "lut_cubic_vec" else "lut_linear_vec")
            a.(0) a.(1) a.(2) w a.(3) a.(4) a.(5) a.(6)
      | Ty.F64 ->
          pr ctx ind "%s(%s, %s, %s, %s, %s, %s, %s);"
            (if cubic then "lut_cubic" else "lut_linear")
            a.(0) a.(1) a.(2) a.(3) a.(4) a.(5) a.(6)
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
   lane) and the Catmull-Rom variants.  Index/fraction clamping and the
   evaluation order of the spline polynomial match the OCaml source
   exactly so results are bitwise identical. *)
let lut_linear_helpers =
  {|static void lut_linear(const double *restrict tab, double *restrict row,
                       double x, double lo, double step,
                       int64_t rows, int64_t cols) {
  double pos = (x - lo) / step;
  int64_t idx;
  double frac;
  if (pos <= 0.0) { idx = 0; frac = 0.0; }
  else if (pos >= (double)(rows - 1)) { idx = rows - 2; frac = 1.0; }
  else { idx = (int64_t)floor(pos); frac = pos - (double)idx; }
  const double *r0 = tab + idx * cols;
  const double *r1 = r0 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c] = r0[c] + frac * (r1[c] - r0[c]);
}

static void lut_linear_vec(const double *restrict tab, double *restrict row,
                           const double *restrict xs, int w,
                           double lo, double step,
                           int64_t rows, int64_t cols) {
  for (int l = 0; l < w; l++) {
    double pos = (xs[l] - lo) / step;
    int64_t idx;
    double frac;
    if (pos <= 0.0) { idx = 0; frac = 0.0; }
    else if (pos >= (double)(rows - 1)) { idx = rows - 2; frac = 1.0; }
    else { idx = (int64_t)floor(pos); frac = pos - (double)idx; }
    const double *r0 = tab + idx * cols;
    const double *r1 = r0 + cols;
    for (int64_t c = 0; c < cols; c++)
      row[c * w + l] = r0[c] + frac * (r1[c] - r0[c]);
  }
}
|}

let lut_cubic_helpers =
  {|static inline void lut_locate_cubic(double pos, int64_t rows,
                                    int64_t *idx, double *u) {
  if (pos <= 1.0) { *idx = 1; *u = ml_fmax(-1.0, pos - 1.0); }
  else if (pos >= (double)(rows - 3)) {
    *idx = rows - 3;
    *u = ml_fmin(2.0, pos - (double)(rows - 3));
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
                      int64_t rows, int64_t cols) {
  if (rows < 4) { lut_linear(tab, row, x, lo, step, rows, cols); return; }
  int64_t idx;
  double u;
  lut_locate_cubic((x - lo) / step, rows, &idx, &u);
  const double *q0 = tab + (idx - 1) * cols;
  const double *q1 = q0 + cols;
  const double *q2 = q1 + cols;
  const double *q3 = q2 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c] = catmull_rom(q0[c], q1[c], q2[c], q3[c], u);
}

static void lut_cubic_vec(const double *restrict tab, double *restrict row,
                          const double *restrict xs, int w,
                          double lo, double step,
                          int64_t rows, int64_t cols) {
  if (rows < 4) {
    lut_linear_vec(tab, row, xs, w, lo, step, rows, cols);
    return;
  }
  for (int l = 0; l < w; l++) {
    int64_t idx;
    double u;
    lut_locate_cubic((xs[l] - lo) / step, rows, &idx, &u);
    const double *q0 = tab + (idx - 1) * cols;
    const double *q1 = q0 + cols;
    const double *q2 = q1 + cols;
    const double *q3 = q2 + cols;
    for (int64_t c = 0; c < cols; c++)
      row[c * w + l] = catmull_rom(q0[c], q1[c], q2[c], q3[c], u);
  }
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
  pr ctx 0 "";
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
