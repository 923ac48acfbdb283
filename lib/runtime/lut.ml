(** Lookup-table runtime (paper §3.4.2).

    A table holds, for each grid point of the lookup variable in
    [lo, hi] with spacing [step], the value of every tabulated cone
    expression ("column").  Kernels call {!interp_row} (scalar) or
    {!interp_row_vec} (vectorized across lanes, the hand-vectorized
    [LUT_interpRow_n_elements_vec] of Listing 3) to linearly interpolate a
    whole row at once into a scratch row buffer.

    Storage is row-major: [data.(r * cols + c)].  The vector row buffer is
    column-major by lane: [row.(c * w + l)] so that the kernel reads a
    column as one contiguous [vector.load]. *)

type table = {
  lo : float;
  step : float;
  rows : int;
  cols : int;
  data : floatarray;
}

(** Build a table by evaluating [columns] at every grid point. *)
let build ~(lo : float) ~(hi : float) ~(step : float)
    (columns : (float -> float) array) : table =
  if step <= 0.0 || hi <= lo then invalid_arg "Lut.build: bad bounds";
  let rows = int_of_float (Float.round ((hi -. lo) /. step)) + 1 in
  let cols = Array.length columns in
  let data = Float.Array.make (max 1 (rows * cols)) 0.0 in
  for r = 0 to rows - 1 do
    let x = lo +. (float_of_int r *. step) in
    Array.iteri (fun c g -> Float.Array.set data ((r * cols) + c) (g x)) columns
  done;
  { lo; step; rows; cols; data }

(* Index and interpolation fraction for a lookup value, clamped to the
   table domain as openCARP does.  NaN fails both clamps; it gets the
   first row and a NaN fraction, so every column interpolates to NaN. *)
let locate (t : table) (x : float) : int * float =
  let pos = (x -. t.lo) /. t.step in
  if pos <= 0.0 then (0, 0.0)
  else if pos >= float_of_int (t.rows - 1) then (t.rows - 2, 1.0)
  else if Float.is_nan pos then (0, pos)
  else
    let idx = int_of_float (Float.floor pos) in
    (idx, pos -. float_of_int idx)

(** Interpolate all columns at [x] into [row.(0 .. cols-1)]. *)
let interp_row (t : table) (x : float) ~(row : floatarray) : unit =
  let idx, frac = locate t x in
  let base0 = idx * t.cols and base1 = (idx + 1) * t.cols in
  for c = 0 to t.cols - 1 do
    let v0 = Float.Array.get t.data (base0 + c)
    and v1 = Float.Array.get t.data (base1 + c) in
    Float.Array.set row c (v0 +. (frac *. (v1 -. v0)))
  done

(** Interpolate all columns for [w] lanes of [xs] into
    [row.(c*w + l)] (column-major by lane). *)
let interp_row_vec (t : table) (xs : floatarray) ~(row : floatarray) : unit =
  let w = Float.Array.length xs in
  for l = 0 to w - 1 do
    let idx, frac = locate t (Float.Array.get xs l) in
    let base0 = idx * t.cols and base1 = (idx + 1) * t.cols in
    for c = 0 to t.cols - 1 do
      let v0 = Float.Array.get t.data (base0 + c)
      and v1 = Float.Array.get t.data (base1 + c) in
      Float.Array.set row ((c * w) + l) (v0 +. (frac *. (v1 -. v0)))
    done
  done

(* ------------------------------------------------------------------ *)
(* Cubic (Catmull-Rom) interpolation — the paper's section 7 names an
   "efficient spline interpolation method" as future work; this implements
   it so the accuracy/cost trade-off can be measured.  Error is O(h^4)
   against the linear scheme's O(h^2) at roughly 4x the per-column
   arithmetic. *)
(* ------------------------------------------------------------------ *)

(* index and fraction such that interpolation uses rows idx-1..idx+2,
   clamped so all four rows exist; NaN, as in {!locate}, reads rows 0..3
   with a NaN fraction *)
let locate_cubic (t : table) (x : float) : int * float =
  let pos = (x -. t.lo) /. t.step in
  let lo_i = 1.0 and hi_i = float_of_int (t.rows - 3) in
  if t.rows < 4 then locate t x
  else if pos <= lo_i then (1, Float.max (-1.0) (pos -. 1.0))
  else if pos >= hi_i then (t.rows - 3, Float.min 2.0 (pos -. float_of_int (t.rows - 3)))
  else if Float.is_nan pos then (1, pos)
  else
    let idx = int_of_float (Float.floor pos) in
    (idx, pos -. float_of_int idx)

let catmull_rom ~(p0 : float) ~(p1 : float) ~(p2 : float) ~(p3 : float)
    (u : float) : float =
  let a = (-0.5 *. p0) +. (1.5 *. p1) -. (1.5 *. p2) +. (0.5 *. p3) in
  let b = p0 -. (2.5 *. p1) +. (2.0 *. p2) -. (0.5 *. p3) in
  let c = (-0.5 *. p0) +. (0.5 *. p2) in
  p1 +. (u *. (c +. (u *. (b +. (u *. a)))))

(** Catmull-Rom interpolation of all columns at [x] into [row]. *)
let interp_row_cubic (t : table) (x : float) ~(row : floatarray) : unit =
  if t.rows < 4 then interp_row t x ~row
  else begin
    let idx, u = locate_cubic t x in
    let b0 = (idx - 1) * t.cols
    and b1 = idx * t.cols
    and b2 = (idx + 1) * t.cols
    and b3 = (idx + 2) * t.cols in
    for c = 0 to t.cols - 1 do
      Float.Array.set row c
        (catmull_rom
           ~p0:(Float.Array.get t.data (b0 + c))
           ~p1:(Float.Array.get t.data (b1 + c))
           ~p2:(Float.Array.get t.data (b2 + c))
           ~p3:(Float.Array.get t.data (b3 + c))
           u)
    done
  end

(** Vector cubic interpolation, column-major per lane like
    {!interp_row_vec}. *)
let interp_row_cubic_vec (t : table) (xs : floatarray) ~(row : floatarray) :
    unit =
  let w = Float.Array.length xs in
  if t.rows < 4 then interp_row_vec t xs ~row
  else
    for l = 0 to w - 1 do
      let idx, u = locate_cubic t (Float.Array.get xs l) in
      let b0 = (idx - 1) * t.cols
      and b1 = idx * t.cols
      and b2 = (idx + 1) * t.cols
      and b3 = (idx + 2) * t.cols in
      for c = 0 to t.cols - 1 do
        Float.Array.set row ((c * w) + l)
          (catmull_rom
             ~p0:(Float.Array.get t.data (b0 + c))
             ~p1:(Float.Array.get t.data (b1 + c))
             ~p2:(Float.Array.get t.data (b2 + c))
             ~p3:(Float.Array.get t.data (b3 + c))
             u)
      done
    done

(* ------------------------------------------------------------------ *)
(* Extern registration: entry points callable from generated IR         *)
(* ------------------------------------------------------------------ *)

(* The generated kernels pass the raw table buffer plus its geometry; we
   reconstruct a [table] view without copying. *)

let of_raw ~(data : floatarray) ~(lo : float) ~(step : float) ~(rows : int)
    ~(cols : int) : table =
  { lo; step; rows; cols; data }

(** [lut_interp(table, row, x, lo, step, rows, cols)]. *)
let extern_interp (args : Exec.Rt.v array) : Exec.Rt.v array =
  match args with
  | [| M data; M row; F x; F lo; F step; I rows; I cols |] ->
      interp_row (of_raw ~data ~lo ~step ~rows ~cols) x ~row;
      [||]
  | _ -> invalid_arg "lut_interp: bad arguments"

(** [lut_interp_vec(table, row, xs, lo, step, rows, cols)]. *)
let extern_interp_vec (args : Exec.Rt.v array) : Exec.Rt.v array =
  match args with
  | [| M data; M row; VF xs; F lo; F step; I rows; I cols |] ->
      interp_row_vec (of_raw ~data ~lo ~step ~rows ~cols) xs ~row;
      [||]
  | _ -> invalid_arg "lut_interp_vec: bad arguments"

(** [lut_interp_cubic(table, row, x, lo, step, rows, cols)]. *)
let extern_interp_cubic (args : Exec.Rt.v array) : Exec.Rt.v array =
  match args with
  | [| M data; M row; F x; F lo; F step; I rows; I cols |] ->
      interp_row_cubic (of_raw ~data ~lo ~step ~rows ~cols) x ~row;
      [||]
  | _ -> invalid_arg "lut_interp_cubic: bad arguments"

(** [lut_interp_cubic_vec(table, row, xs, lo, step, rows, cols)]. *)
let extern_interp_cubic_vec (args : Exec.Rt.v array) : Exec.Rt.v array =
  match args with
  | [| M data; M row; VF xs; F lo; F step; I rows; I cols |] ->
      interp_row_cubic_vec (of_raw ~data ~lo ~step ~rows ~cols) xs ~row;
      [||]
  | _ -> invalid_arg "lut_interp_cubic_vec: bad arguments"

let register (r : Exec.Rt.registry) : unit =
  Exec.Rt.register r "lut_interp" extern_interp;
  Exec.Rt.register r "lut_interp_vec" extern_interp_vec;
  Exec.Rt.register r "lut_interp_cubic" extern_interp_cubic;
  Exec.Rt.register r "lut_interp_cubic_vec" extern_interp_cubic_vec

(** Extern signatures for IR modules (scalar and vector variants). *)
let extern_sigs ~(width : int) : Ir.Func.extern_sig list =
  let open Ir in
  let scalar name =
    {
      Func.e_name = name;
      e_params = [ Ty.Memref; Ty.Memref; Ty.F64; Ty.F64; Ty.F64; Ty.I64; Ty.I64 ];
      e_results = [];
    }
  and vector name =
    {
      Func.e_name = name;
      e_params =
        [
          Ty.Memref;
          Ty.Memref;
          Ty.vec width Ty.F64;
          Ty.F64;
          Ty.F64;
          Ty.I64;
          Ty.I64;
        ];
      e_results = [];
    }
  in
  [
    scalar "lut_interp";
    vector "lut_interp_vec";
    scalar "lut_interp_cubic";
    vector "lut_interp_cubic_vec";
  ]
