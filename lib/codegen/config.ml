(** Code-generation configuration.

    [width = 1] produces the scalar baseline (openCARP's limpetC++
    analogue); widths 2/4/8 correspond to the paper's SSE / AVX2 / AVX-512
    experiments.  [scalar_math] models the icc auto-vectorizer of §5, which
    vectorizes arithmetic but serializes math-library calls and uses
    gathers; it changes only the machine-model cost, not semantics. *)

type t = {
  width : int;  (** vector width in doubles: 1, 2, 4 or 8 *)
  layout : Runtime.Layout.t;  (** cell-state data layout *)
  use_lut : bool;  (** honour [.lookup] markups *)
  lut_spline : bool;
      (** cubic Catmull-Rom interpolation instead of linear (the paper's
          section 7 future-work item); ~4x the per-column arithmetic for
          O(h^4) accuracy *)
  scalar_math : bool;  (** cost-model flag: math calls not SVML-vectorized *)
}

(** Every supported [width]: scalar, SSE, AVX2 and AVX-512. *)
let widths = [ 1; 2; 4; 8 ]

(** openCARP baseline: scalar code, AoS layout, scalar LUT interpolation. *)
let baseline = {
  width = 1;
  layout = Runtime.Layout.AoS;
  use_lut = true;
  lut_spline = false;
  scalar_math = true;
}

(** limpetMLIR at a given vector width: AoSoA layout (the data-layout
    transformation), vectorized LUT interpolation, SVML math. *)
let mlir ~(width : int) = {
  width;
  layout = Runtime.Layout.AoSoA width;
  use_lut = true;
  lut_spline = false;
  scalar_math = false;
}

(** The icc [omp simd] comparison point of §5: vector arithmetic but AoS
    gathers, scalar LUT, serialized math calls. *)
let autovec ~(width : int) = {
  width;
  layout = Runtime.Layout.AoS;
  use_lut = true;
  lut_spline = false;
  scalar_math = true;
}

let arch_name (c : t) : string =
  match c.width with
  | 1 -> "scalar"
  | 2 -> "sse"
  | 4 -> "avx2"
  | 8 -> "avx512"
  | w -> Printf.sprintf "vec%d" w

(* Covers every semantically relevant field — the compile cache keys on
   this string, so omitting a field here would alias distinct kernels
   (audited against the field list above: width+layout via arch/layout,
   use_lut/lut_spline, scalar_math). *)
let describe (c : t) : string =
  Printf.sprintf "%s/%s%s%s" (arch_name c)
    (Runtime.Layout.name c.layout)
    (if c.use_lut then (if c.lut_spline then "+lutc" else "+lut") else "-lut")
    (if c.scalar_math then "-svml" else "+svml")
