open Ir
(** Tile-batched execution engine (loop inversion).

    A per-op thunk ({!Engine.compile_op}) dispatches once per loop
    {e iteration}: dispatch cost is O(instrs × cells / width).  This
    engine inverts the loop.  A kernel's parallel cell loop is lowered
    once into *tile ops*; each dispatch executes its instruction across a
    whole tile of K consecutive vector blocks via a tight [for] over an
    unboxed row, so dispatch cost becomes O(instrs × cells / (width × K))
    — the batched-interpreter technique of array languages, applied to
    the ionic compute stage.

    Every SSA value of the loop body gets a *row*: a [K × ew] scratch
    array, where [ew] is the value's element width (1 for scalars, the
    vector width for vectors).  Scalar and vector arithmetic therefore
    share one encoding — an elementwise op is a single loop over
    [n × ew] elements.  Three pieces keep the tile loops fast and the
    results bitwise identical to the other engines:

    - {b slot coalescing} ({!Regalloc}): live ranges over the flat stream
      let dead rows be reused, shrinking the per-tile register file by
      roughly an order of magnitude so the working set stays in L1.  The
      default K is chosen so the *coalesced* rows fit a 32 KiB budget.
    - {b LUT macro-op}: the whole interpRow sequence — index computation,
      clamp, row gather, per-column lerp for every column of a table —
      runs as one tile instruction mirroring {!Runtime.Lut} operation for
      operation (paper §3.4.2).  The shared per-iteration row scratch
      would be clobbered across the tile under loop inversion, so the
      macro-op owns private [K × cols × ew] storage and the kernel's
      loads from the row buffer are rewritten against it.
    - {b soundness gate}: only [scf.for {parallel}] loops with no
      loop-carried values and straight-line, fully-selectable bodies are
      inverted.  The parallel marker certifies iterations independent, so
      executing them tile-by-tile instead of one-by-one permutes only
      work between independent cells; within a cell the arithmetic
      sequence is unchanged, hence bitwise-identical state.  Everything
      else — other loops, and whole functions without a parallel loop
      such as the lookup-table initializers — runs on per-op thunks
      ({!Engine.compile_op}). *)

module E = Engine

let fail = E.fail
let oob () = invalid_arg "index out of bounds"

(* Default per-block byte budget for the coalesced register file: one
   tile's rows plus private LUT storage should fit a typical 32 KiB L1d.
   The tile size only moves performance, never results. *)
let l1_budget_bytes = 32768

let min_auto_tile = 4
let max_auto_tile = 64

(* ------------------------------------------------------------------ *)
(* Tile instructions                                                   *)
(* ------------------------------------------------------------------ *)

(* Integer fields are row indices into the per-kind row pools ([fr]/[ir]/
   [br]) resolved after coalescing; [ew] is the element width of the rows
   involved (row length = tile × ew; an instruction touches n × ew
   elements when n blocks are active).  [mm] fields are {!Engine.env}
   memref slots — memrefs are uniform across the tile. *)
type lut_op = {
  k_buf : int;  (** private row-storage id *)
  k_mm : int;  (** table memref slot *)
  k_x : int;  (** lookup-value row, ew = k_w *)
  k_w : int;
  k_lo : float;
  k_step : float;
  k_rows : int;
  k_cols : int;
  k_cubic : bool;
}

type tinstr =
  (* tile fills *)
  | KCstF of int * int * float  (** d, ew, value *)
  | KCstI of int * int * int
  | KImpF of int * int  (** d <- splat of scalar register [s] (live-in) *)
  | KImpI of int * int
  | KImpB of int * int
  | KImpVF of int * int * int  (** d, w, s: d[k*w+l] <- vf.(s).[l] *)
  | KImpVI of int * int * int
  | KImpVB of int * int * int
  | KIv of int  (** induction row: d[k] <- tile_base + k*step *)
  (* float elementwise (len = n × ew) *)
  | KAdd of int * int * int * int  (** d, a, c, ew *)
  | KSub of int * int * int * int
  | KMul of int * int * int * int
  | KDiv of int * int * int * int
  | KFBinG of int * int * int * int * (float -> float -> float)
  | KNeg of int * int * int
  | KFma of int * int * int * int * int  (** d, a, b, c, ew: a*b + c *)
  | KFms of int * int * int * int * int  (** a*b - c *)
  | KFsm of int * int * int * int * int  (** c - a*b *)
  | KAdd3 of int * int * int * int * int
  | KMul3 of int * int * int * int * int
  | KSubMul of int * int * int * int * int
  | KAddMul of int * int * int * int * int
  | KSubAdd of int * int * int * int * int
  | KM1 of int * int * int * (float -> float)
  | KM2 of int * int * int * int * (float -> float -> float)
  | KCmpF of int * int * int * int * (float -> float -> bool)  (** d: bool *)
  | KSel of int * int * int * int * int  (** d, c(bool), x, y, ew *)
  | KSelB of int * int * int * int * int  (** d, c, x, y, ew: all bool *)
  | KCmpSel of int * int * int * int * int * int * (float -> float -> bool)
      (** d, a, c, x, y, ew *)
  | KSiToF of int * int * int
  (* int elementwise *)
  | KAddI of int * int * int * int
  | KSubI of int * int * int * int
  | KMulI of int * int * int * int
  | KBinGI of int * int * int * int * (int -> int -> int)
  | KMadI of int * int * int * int * int  (** a*b + c (addressing) *)
  (* bool elementwise *)
  | KBinB of int * int * int * int * (bool -> bool -> bool)
  | KNotB of int * int * int
  (* cross-width *)
  | KBcastF of int * int * int  (** d, a, w: d[k*w+l] <- a[k] *)
  | KBcastI of int * int * int
  | KIota of int * int  (** d, w: d[k*w+l] <- l *)
  (* memory (bounds-checked) *)
  | KLoad of int * int * int  (** d, mm, ix *)
  | KStore of int * int * int  (** a, mm, ix *)
  | KVLoad of int * int * int * int  (** d, mm, ix, w — contiguous *)
  | KVStore of int * int * int * int
  | KGather of int * int * int * int  (** d, mm, ixs(ew=w), w *)
  | KScatter of int * int * int * int
  (* fused LUT interpolation + private-row accesses *)
  | KLut of lut_op
  | KRowLoad of int * int * int * int  (** d, buf, ix, stride *)
  | KRowVLoad of int * int * int * int * int  (** d, buf, ix, w, stride *)

(* ------------------------------------------------------------------ *)
(* Tile register file and executor                                     *)
(* ------------------------------------------------------------------ *)

type tstate = {
  fr : floatarray array;  (** float rows, length tile × ew each *)
  ir : int array array;
  br : bool array array;
  lb : floatarray array;  (** private LUT row storage, tile × stride *)
  mutable base : int;  (** induction value of the tile's first block *)
  mutable stp : int;  (** loop step *)
  mutable n : int;  (** active blocks in the current tile *)
}

(* The dispatch loop: one [match] per instruction *per tile*, each arm a
   tight loop over n × ew unboxed elements.  Row accesses are unchecked
   (indices are compiler-assigned, bounded by tile × ew); memref accesses
   are always checked. *)
let exec_tile (code : tinstr array) (st : tstate) (e : E.env) : unit -> unit =
  let fr = st.fr and ir = st.ir and br = st.br and lb = st.lb in
  let m = e.E.m in
  let ninstr = Array.length code in
  fun () ->
    let n = st.n in
    for pc = 0 to ninstr - 1 do
      match Array.unsafe_get code pc with
      | KCstF (d, ew, x) ->
          let z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j x
          done
      | KCstI (d, ew, x) ->
          let z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j x
          done
      | KImpF (d, s) ->
          let z = Array.unsafe_get fr d and x = Array.unsafe_get e.E.f s in
          for k = 0 to n - 1 do
            Float.Array.unsafe_set z k x
          done
      | KImpI (d, s) ->
          let z = Array.unsafe_get ir d and x = Array.unsafe_get e.E.i s in
          for k = 0 to n - 1 do
            Array.unsafe_set z k x
          done
      | KImpB (d, s) ->
          let z = Array.unsafe_get br d and x = Array.unsafe_get e.E.b s in
          for k = 0 to n - 1 do
            Array.unsafe_set z k x
          done
      | KImpVF (d, w, s) ->
          let z = Array.unsafe_get fr d and x = Array.unsafe_get e.E.vf s in
          for k = 0 to n - 1 do
            let b = k * w in
            for l = 0 to w - 1 do
              Float.Array.unsafe_set z (b + l) (Float.Array.unsafe_get x l)
            done
          done
      | KImpVI (d, w, s) ->
          let z = Array.unsafe_get ir d and x = Array.unsafe_get e.E.vi s in
          for k = 0 to n - 1 do
            let b = k * w in
            for l = 0 to w - 1 do
              Array.unsafe_set z (b + l) (Array.unsafe_get x l)
            done
          done
      | KImpVB (d, w, s) ->
          let z = Array.unsafe_get br d and x = Array.unsafe_get e.E.vb s in
          for k = 0 to n - 1 do
            let b = k * w in
            for l = 0 to w - 1 do
              Array.unsafe_set z (b + l) (Array.unsafe_get x l)
            done
          done
      | KIv d ->
          let z = Array.unsafe_get ir d
          and base = st.base
          and stp = st.stp in
          for k = 0 to n - 1 do
            Array.unsafe_set z k (base + (k * stp))
          done
      | KAdd (d, a, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j +. Float.Array.unsafe_get y j)
          done
      | KSub (d, a, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j -. Float.Array.unsafe_get y j)
          done
      | KMul (d, a, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j *. Float.Array.unsafe_get y j)
          done
      | KDiv (d, a, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j /. Float.Array.unsafe_get y j)
          done
      | KFBinG (d, a, c, ew, h) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (h (Float.Array.unsafe_get x j) (Float.Array.unsafe_get y j))
          done
      | KNeg (d, a, ew) ->
          let x = Array.unsafe_get fr a and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j (-.Float.Array.unsafe_get x j)
          done
      | KFma (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              ((Float.Array.unsafe_get x j *. Float.Array.unsafe_get y j)
              +. Float.Array.unsafe_get u j)
          done
      | KFms (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              ((Float.Array.unsafe_get x j *. Float.Array.unsafe_get y j)
              -. Float.Array.unsafe_get u j)
          done
      | KFsm (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get u j
              -. (Float.Array.unsafe_get x j *. Float.Array.unsafe_get y j))
          done
      | KAdd3 (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j +. Float.Array.unsafe_get y j
              +. Float.Array.unsafe_get u j)
          done
      | KMul3 (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j *. Float.Array.unsafe_get y j
              *. Float.Array.unsafe_get u j)
          done
      | KSubMul (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              ((Float.Array.unsafe_get x j -. Float.Array.unsafe_get y j)
              *. Float.Array.unsafe_get u j)
          done
      | KAddMul (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              ((Float.Array.unsafe_get x j +. Float.Array.unsafe_get y j)
              *. Float.Array.unsafe_get u j)
          done
      | KSubAdd (d, a, b, c, ew) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr b
          and u = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.unsafe_get x j -. Float.Array.unsafe_get y j
              +. Float.Array.unsafe_get u j)
          done
      | KM1 (d, a, ew, g) ->
          let x = Array.unsafe_get fr a and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j (g (Float.Array.unsafe_get x j))
          done
      | KM2 (d, a, c, ew, g) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (g (Float.Array.unsafe_get x j) (Float.Array.unsafe_get y j))
          done
      | KCmpF (d, a, c, ew, g) ->
          let x = Array.unsafe_get fr a
          and y = Array.unsafe_get fr c
          and z = Array.unsafe_get br d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j
              (g (Float.Array.unsafe_get x j) (Float.Array.unsafe_get y j))
          done
      | KSel (d, c, x, y, ew) ->
          let cc = Array.unsafe_get br c
          and xx = Array.unsafe_get fr x
          and yy = Array.unsafe_get fr y
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (if Array.unsafe_get cc j then Float.Array.unsafe_get xx j
               else Float.Array.unsafe_get yy j)
          done
      | KSelB (d, c, x, y, ew) ->
          let cc = Array.unsafe_get br c
          and xx = Array.unsafe_get br x
          and yy = Array.unsafe_get br y
          and z = Array.unsafe_get br d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j
              (if Array.unsafe_get cc j then Array.unsafe_get xx j
               else Array.unsafe_get yy j)
          done
      | KCmpSel (d, a, c, x, y, ew, g) ->
          let aa = Array.unsafe_get fr a
          and cc = Array.unsafe_get fr c
          and xx = Array.unsafe_get fr x
          and yy = Array.unsafe_get fr y
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j
              (if g (Float.Array.unsafe_get aa j) (Float.Array.unsafe_get cc j)
               then Float.Array.unsafe_get xx j
               else Float.Array.unsafe_get yy j)
          done
      | KSiToF (d, a, ew) ->
          let x = Array.unsafe_get ir a and z = Array.unsafe_get fr d in
          for j = 0 to (n * ew) - 1 do
            Float.Array.unsafe_set z j (float_of_int (Array.unsafe_get x j))
          done
      | KAddI (d, a, c, ew) ->
          let x = Array.unsafe_get ir a
          and y = Array.unsafe_get ir c
          and z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (Array.unsafe_get x j + Array.unsafe_get y j)
          done
      | KSubI (d, a, c, ew) ->
          let x = Array.unsafe_get ir a
          and y = Array.unsafe_get ir c
          and z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (Array.unsafe_get x j - Array.unsafe_get y j)
          done
      | KMulI (d, a, c, ew) ->
          let x = Array.unsafe_get ir a
          and y = Array.unsafe_get ir c
          and z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (Array.unsafe_get x j * Array.unsafe_get y j)
          done
      | KBinGI (d, a, c, ew, g) ->
          let x = Array.unsafe_get ir a
          and y = Array.unsafe_get ir c
          and z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (g (Array.unsafe_get x j) (Array.unsafe_get y j))
          done
      | KMadI (d, a, b, c, ew) ->
          let x = Array.unsafe_get ir a
          and y = Array.unsafe_get ir b
          and u = Array.unsafe_get ir c
          and z = Array.unsafe_get ir d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j
              ((Array.unsafe_get x j * Array.unsafe_get y j)
              + Array.unsafe_get u j)
          done
      | KBinB (d, a, c, ew, g) ->
          let x = Array.unsafe_get br a
          and y = Array.unsafe_get br c
          and z = Array.unsafe_get br d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (g (Array.unsafe_get x j) (Array.unsafe_get y j))
          done
      | KNotB (d, a, ew) ->
          let x = Array.unsafe_get br a and z = Array.unsafe_get br d in
          for j = 0 to (n * ew) - 1 do
            Array.unsafe_set z j (not (Array.unsafe_get x j))
          done
      | KBcastF (d, a, w) ->
          let x = Array.unsafe_get fr a and z = Array.unsafe_get fr d in
          for k = 0 to n - 1 do
            let v = Float.Array.unsafe_get x k and b = k * w in
            for l = 0 to w - 1 do
              Float.Array.unsafe_set z (b + l) v
            done
          done
      | KBcastI (d, a, w) ->
          let x = Array.unsafe_get ir a and z = Array.unsafe_get ir d in
          for k = 0 to n - 1 do
            let v = Array.unsafe_get x k and b = k * w in
            for l = 0 to w - 1 do
              Array.unsafe_set z (b + l) v
            done
          done
      | KIota (d, w) ->
          let z = Array.unsafe_get ir d in
          for k = 0 to n - 1 do
            let b = k * w in
            for l = 0 to w - 1 do
              Array.unsafe_set z (b + l) l
            done
          done
      | KLoad (d, mm, ix) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ix
          and z = Array.unsafe_get fr d in
          for k = 0 to n - 1 do
            Float.Array.unsafe_set z k
              (Float.Array.get buf (Array.unsafe_get iix k))
          done
      | KStore (a, mm, ix) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ix
          and x = Array.unsafe_get fr a in
          for k = 0 to n - 1 do
            Float.Array.set buf (Array.unsafe_get iix k)
              (Float.Array.unsafe_get x k)
          done
      | KVLoad (d, mm, ix, w) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ix
          and z = Array.unsafe_get fr d in
          let len = Float.Array.length buf in
          for k = 0 to n - 1 do
            let base = Array.unsafe_get iix k in
            if base < 0 || base + w > len then oob ();
            let b = k * w in
            for l = 0 to w - 1 do
              Float.Array.unsafe_set z (b + l)
                (Float.Array.unsafe_get buf (base + l))
            done
          done
      | KVStore (a, mm, ix, w) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ix
          and x = Array.unsafe_get fr a in
          let len = Float.Array.length buf in
          for k = 0 to n - 1 do
            let base = Array.unsafe_get iix k in
            if base < 0 || base + w > len then oob ();
            let b = k * w in
            for l = 0 to w - 1 do
              Float.Array.unsafe_set buf (base + l)
                (Float.Array.unsafe_get x (b + l))
            done
          done
      | KGather (d, mm, ixs, w) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ixs
          and z = Array.unsafe_get fr d in
          for j = 0 to (n * w) - 1 do
            Float.Array.unsafe_set z j
              (Float.Array.get buf (Array.unsafe_get iix j))
          done
      | KScatter (a, mm, ixs, w) ->
          let buf = Array.unsafe_get m mm
          and iix = Array.unsafe_get ir ixs
          and x = Array.unsafe_get fr a in
          for j = 0 to (n * w) - 1 do
            Float.Array.set buf (Array.unsafe_get iix j)
              (Float.Array.unsafe_get x j)
          done
      | KLut { k_buf; k_mm; k_x; k_w = w; k_lo = lo; k_step = step;
               k_rows = rows; k_cols = cols; k_cubic } ->
          Obs.Tracer.count "batched.lut_fire" 1.0;
          let tbl = Array.unsafe_get m k_mm
          and xs = Array.unsafe_get fr k_x
          and dst = Array.unsafe_get lb k_buf in
          let stride = cols * w in
          let len = Float.Array.length tbl in
          (* Mirrors {!Runtime.Lut} operation for operation, NaN branch
             included; the [safe] fast path drops per-access table checks
             once the geometry is known to fit (clamping bounds every
             index), and a table shorter than its geometry takes the
             checked path, raising exactly as the extern would. *)
          if k_cubic && rows >= 4 then begin
            let safe = rows * cols <= len in
            let hi_i = float_of_int (rows - 3) in
            for k = 0 to n - 1 do
              let xb = k * w and db = k * stride in
              for l = 0 to w - 1 do
                let x = Float.Array.unsafe_get xs (xb + l) in
                let pos = (x -. lo) /. step in
                let idx, u =
                  if pos <= 1.0 then (1, Float.max (-1.0) (pos -. 1.0))
                  else if pos >= hi_i then (rows - 3, Float.min 2.0 (pos -. hi_i))
                  else if Float.is_nan pos then (1, pos)
                  else
                    let idx = int_of_float (Float.floor pos) in
                    (idx, pos -. float_of_int idx)
                in
                let b0 = (idx - 1) * cols
                and b1 = idx * cols
                and b2 = (idx + 1) * cols
                and b3 = (idx + 2) * cols in
                if safe && idx >= 1 && idx <= rows - 3 then
                  for c = 0 to cols - 1 do
                    let p0 = Float.Array.unsafe_get tbl (b0 + c)
                    and p1 = Float.Array.unsafe_get tbl (b1 + c)
                    and p2 = Float.Array.unsafe_get tbl (b2 + c)
                    and p3 = Float.Array.unsafe_get tbl (b3 + c) in
                    let a = (-0.5 *. p0) +. (1.5 *. p1) -. (1.5 *. p2) +. (0.5 *. p3) in
                    let bb = p0 -. (2.5 *. p1) +. (2.0 *. p2) -. (0.5 *. p3) in
                    let cq = (-0.5 *. p0) +. (0.5 *. p2) in
                    Float.Array.unsafe_set dst (db + (c * w) + l)
                      (p1 +. (u *. (cq +. (u *. (bb +. (u *. a))))))
                  done
                else
                  for c = 0 to cols - 1 do
                    let p0 = Float.Array.get tbl (b0 + c)
                    and p1 = Float.Array.get tbl (b1 + c)
                    and p2 = Float.Array.get tbl (b2 + c)
                    and p3 = Float.Array.get tbl (b3 + c) in
                    let a = (-0.5 *. p0) +. (1.5 *. p1) -. (1.5 *. p2) +. (0.5 *. p3) in
                    let bb = p0 -. (2.5 *. p1) +. (2.0 *. p2) -. (0.5 *. p3) in
                    let cq = (-0.5 *. p0) +. (0.5 *. p2) in
                    Float.Array.set dst (db + (c * w) + l)
                      (p1 +. (u *. (cq +. (u *. (bb +. (u *. a))))))
                  done
              done
            done
          end
          else begin
            (* linear; also the cubic fallback when rows < 4, as in
               {!Runtime.Lut.interp_row_cubic} *)
            let safe = rows >= 2 && rows * cols <= len in
            let hi_i = float_of_int (rows - 1) in
            for k = 0 to n - 1 do
              let xb = k * w and db = k * stride in
              for l = 0 to w - 1 do
                let x = Float.Array.unsafe_get xs (xb + l) in
                let pos = (x -. lo) /. step in
                let idx, frac =
                  if pos <= 0.0 then (0, 0.0)
                  else if pos >= hi_i then (rows - 2, 1.0)
                  else if Float.is_nan pos then (0, pos)
                  else
                    let idx = int_of_float (Float.floor pos) in
                    (idx, pos -. float_of_int idx)
                in
                let base0 = idx * cols and base1 = (idx + 1) * cols in
                if safe && idx >= 0 && idx <= rows - 2 then
                  for c = 0 to cols - 1 do
                    let v0 = Float.Array.unsafe_get tbl (base0 + c)
                    and v1 = Float.Array.unsafe_get tbl (base1 + c) in
                    Float.Array.unsafe_set dst (db + (c * w) + l)
                      (v0 +. (frac *. (v1 -. v0)))
                  done
                else
                  for c = 0 to cols - 1 do
                    let v0 = Float.Array.get tbl (base0 + c)
                    and v1 = Float.Array.get tbl (base1 + c) in
                    Float.Array.set dst (db + (c * w) + l)
                      (v0 +. (frac *. (v1 -. v0)))
                  done
              done
            done
          end
      | KRowLoad (d, buf, ix, stride) ->
          let src = Array.unsafe_get lb buf
          and iix = Array.unsafe_get ir ix
          and z = Array.unsafe_get fr d in
          for k = 0 to n - 1 do
            let j = Array.unsafe_get iix k in
            if j < 0 || j >= stride then oob ();
            Float.Array.unsafe_set z k
              (Float.Array.unsafe_get src ((k * stride) + j))
          done
      | KRowVLoad (d, buf, ix, w, stride) ->
          let src = Array.unsafe_get lb buf
          and iix = Array.unsafe_get ir ix
          and z = Array.unsafe_get fr d in
          for k = 0 to n - 1 do
            let j = Array.unsafe_get iix k in
            if j < 0 || j + w > stride then oob ();
            let sb = (k * stride) + j and b = k * w in
            for l = 0 to w - 1 do
              Float.Array.unsafe_set z (b + l)
                (Float.Array.unsafe_get src (sb + l))
            done
          done
    done

(* ------------------------------------------------------------------ *)
(* Selection: IR op -> abstract tile instruction                       *)
(* ------------------------------------------------------------------ *)

exception Not_tileable

(* An abstract tile instruction: the SSA values it reads and writes (for
   the coalescer; memrefs and LUT storage are uniform resources, never
   virtual registers) plus an emitter invoked once rows are assigned. *)
type ainstr = {
  a_uses : Value.t list;
  a_defs : Value.t list;
  a_emit : (Value.t -> int) -> tinstr;
}

(* Register classes: element kind in the high bits, element width in the
   low byte.  Rows are only coalesced within a class, so a reused row
   always has the right pool and length. *)
let kind_of_ty (t : Ty.t) : int =
  match Ty.elem t with
  | Ty.F64 -> 0
  | Ty.I64 -> 1
  | Ty.I1 -> 2
  | _ -> raise Not_tileable

let cls_of (v : Value.t) : int = (kind_of_ty v.Value.ty lsl 8) lor Ty.width v.Value.ty
let areg_of (v : Value.t) : Regalloc.vreg = { Regalloc.vclass = cls_of v; vid = v.Value.id }
let ew_of (v : Value.t) : int = Ty.width v.Value.ty

(* A recognized LUT interpolation call site: geometry resolved to
   constants at compile time, private row storage assigned. *)
type lut_site = {
  ls_buf : int;
  ls_mm : int;  (** table memref env slot *)
  ls_x : Value.t;
  ls_w : int;
  ls_lo : float;
  ls_step : float;
  ls_rows : int;
  ls_cols : int;
  ls_cubic : bool;
  ls_stride : int;  (** cols × w: row storage per tile block *)
}

let lut_cubic_of_callee = function
  | "lut_interp" | "lut_interp_vec" -> Some false
  | "lut_interp_cubic" | "lut_interp_cubic_vec" -> Some true
  | _ -> None

let use_counts (fn : Func.func) : (int, int) Hashtbl.t =
  let h = Hashtbl.create 256 in
  let bump (v : Value.t) =
    Hashtbl.replace h v.Value.id
      (1 + Option.value ~default:0 (Hashtbl.find_opt h v.Value.id))
  in
  let rec walk (r : Op.region) =
    List.iter
      (fun (o : Op.op) ->
        Array.iter bump o.Op.operands;
        Array.iter walk o.Op.regions)
      r.Op.r_ops
  in
  walk fn.Func.f_body;
  h

let single_use (uc : (int, int) Hashtbl.t) (v : Value.t) : bool =
  Hashtbl.find_opt uc v.Value.id = Some 1

let mk uses defs emit = Some { a_uses = uses; a_defs = defs; a_emit = emit }

(* Producer/consumer superinstructions: every combined form keeps both
   rounding steps of the two ops it replaces, so results match the
   per-op thunks and the interpreter bitwise. *)
let pair_sel (p : Op.op) (o : Op.op) : ainstr option =
  if Array.length p.Op.results <> 1 then None
  else
    let t = p.Op.results.(0) in
    let uses_t k = o.Op.operands.(k).Value.id = t.Value.id in
    match (p.Op.kind, o.Op.kind) with
    | Op.BinF kp, Op.BinF ko
      when Ty.is_float_like t.Value.ty && (uses_t 0 || uses_t 1) -> (
        let combo =
          match (kp, ko, uses_t 0) with
          | Op.FMul, Op.FAdd, _ -> Some `Fma
          | Op.FMul, Op.FSub, true -> Some `Fms
          | Op.FMul, Op.FSub, false -> Some `Fsm
          | Op.FMul, Op.FMul, _ -> Some `Mul3
          | Op.FAdd, Op.FAdd, _ -> Some `Add3
          | Op.FAdd, Op.FMul, _ -> Some `AddMul
          | Op.FSub, Op.FAdd, _ -> Some `SubAdd
          | Op.FSub, Op.FMul, _ -> Some `SubMul
          | _ -> None
        in
        match combo with
        | None -> None
        | Some tag ->
            let a = p.Op.operands.(0) and b = p.Op.operands.(1) in
            let other =
              if uses_t 0 then o.Op.operands.(1) else o.Op.operands.(0)
            in
            let d = o.Op.results.(0) in
            let ew = ew_of t in
            mk [ a; b; other ] [ d ] (fun lk ->
                let dd = lk d and pa = lk a and pb = lk b and oc = lk other in
                match tag with
                | `Fma -> KFma (dd, pa, pb, oc, ew)
                | `Fms -> KFms (dd, pa, pb, oc, ew)
                | `Fsm -> KFsm (dd, pa, pb, oc, ew)
                | `Mul3 -> KMul3 (dd, pa, pb, oc, ew)
                | `Add3 -> KAdd3 (dd, pa, pb, oc, ew)
                | `AddMul -> KAddMul (dd, pa, pb, oc, ew)
                | `SubAdd -> KSubAdd (dd, pa, pb, oc, ew)
                | `SubMul -> KSubMul (dd, pa, pb, oc, ew)))
    | Op.CmpF cc, Op.Select
      when uses_t 0
           && Ty.is_float_like o.Op.results.(0).Value.ty
           && Ty.is_float_like p.Op.operands.(0).Value.ty
           && ew_of p.Op.operands.(0) = ew_of o.Op.results.(0) ->
        let a = p.Op.operands.(0) and u = p.Op.operands.(1) in
        let x = o.Op.operands.(1) and y = o.Op.operands.(2) in
        let d = o.Op.results.(0) in
        let ew = ew_of d and g = E.cmpf_fn cc in
        mk [ a; u; x; y ] [ d ] (fun lk ->
            KCmpSel (lk d, lk a, lk u, lk x, lk y, ew, g))
    | Op.BinI Op.IMul, Op.BinI Op.IAdd
      when Ty.is_int_like t.Value.ty && (uses_t 0 || uses_t 1) ->
        let a = p.Op.operands.(0) and b = p.Op.operands.(1) in
        let other = if uses_t 0 then o.Op.operands.(1) else o.Op.operands.(0) in
        let d = o.Op.results.(0) in
        let ew = ew_of t in
        mk [ a; b; other ] [ d ] (fun lk ->
            KMadI (lk d, lk a, lk b, lk other, ew))
    | _ -> None

(* Single-op selection.  [None] makes the whole loop non-tileable (it
   then runs on the per-op thunks). *)
let sel_op (c : E.fctx) ~(luts : (int, lut_site) Hashtbl.t)
    ~(rowmap : (int, lut_site) Hashtbl.t) (o : Op.op) : ainstr option =
  let op k = o.Op.operands.(k) and res () = o.Op.results.(0) in
  match o.Op.kind with
  | Op.ConstF x ->
      let d = res () in
      mk [] [ d ] (fun lk -> KCstF (lk d, ew_of d, x))
  | Op.ConstI x ->
      let d = res () in
      mk [] [ d ] (fun lk -> KCstI (lk d, ew_of d, x))
  | Op.BinF k ->
      let d = res () and a = op 0 and b = op 1 in
      let ew = ew_of d in
      mk [ a; b ] [ d ]
        (match k with
        | Op.FAdd -> fun lk -> KAdd (lk d, lk a, lk b, ew)
        | Op.FSub -> fun lk -> KSub (lk d, lk a, lk b, ew)
        | Op.FMul -> fun lk -> KMul (lk d, lk a, lk b, ew)
        | Op.FDiv -> fun lk -> KDiv (lk d, lk a, lk b, ew)
        | _ ->
            let g = E.fbin_fn k in
            fun lk -> KFBinG (lk d, lk a, lk b, ew, g))
  | Op.NegF ->
      let d = res () and a = op 0 in
      let ew = ew_of d in
      mk [ a ] [ d ] (fun lk -> KNeg (lk d, lk a, ew))
  | Op.BinI k ->
      let d = res () and a = op 0 and b = op 1 in
      let ew = ew_of d in
      mk [ a; b ] [ d ]
        (match k with
        | Op.IAdd -> fun lk -> KAddI (lk d, lk a, lk b, ew)
        | Op.ISub -> fun lk -> KSubI (lk d, lk a, lk b, ew)
        | Op.IMul -> fun lk -> KMulI (lk d, lk a, lk b, ew)
        | _ ->
            let g = E.ibin_fn k in
            fun lk -> KBinGI (lk d, lk a, lk b, ew, g))
  | Op.BinB k ->
      let d = res () and a = op 0 and b = op 1 in
      let ew = ew_of d and g = E.bbin_fn k in
      mk [ a; b ] [ d ] (fun lk -> KBinB (lk d, lk a, lk b, ew, g))
  | Op.NotB ->
      let d = res () and a = op 0 in
      let ew = ew_of d in
      mk [ a ] [ d ] (fun lk -> KNotB (lk d, lk a, ew))
  | Op.CmpF cc ->
      let d = res () and a = op 0 and b = op 1 in
      let ew = ew_of a and g = E.cmpf_fn cc in
      mk [ a; b ] [ d ] (fun lk -> KCmpF (lk d, lk a, lk b, ew, g))
  | Op.Select ->
      let d = res () and cc = op 0 and x = op 1 and y = op 2 in
      let ew = ew_of d in
      let float = Ty.is_float_like d.Value.ty in
      mk [ cc; x; y ] [ d ] (fun lk ->
          if float then KSel (lk d, lk cc, lk x, lk y, ew)
          else KSelB (lk d, lk cc, lk x, lk y, ew))
  | Op.SIToFP ->
      let d = res () and a = op 0 in
      let ew = ew_of d in
      mk [ a ] [ d ] (fun lk -> KSiToF (lk d, lk a, ew))
  | Op.Math name -> (
      match Easyml.Builtins.find name with
      | None -> None
      | Some bi -> (
          match (bi.Easyml.Builtins.arity, Array.length o.Op.operands) with
          | 1, 1 ->
              let d = res () and a = op 0 in
              let ew = ew_of d in
              let g =
                match E.unary_fn name with
                | Some g -> g
                | None ->
                    (* same generic path as the per-op thunks:
                       one scratch cell, identical float function *)
                    let buf = [| 0.0 |] in
                    fun x ->
                      buf.(0) <- x;
                      bi.Easyml.Builtins.eval buf
              in
              mk [ a ] [ d ] (fun lk -> KM1 (lk d, lk a, ew, g))
          | 2, 2 ->
              let d = res () and a = op 0 and b = op 1 in
              let ew = ew_of d in
              let g =
                match E.binary_fn name with
                | Some g -> g
                | None ->
                    let buf = [| 0.0; 0.0 |] in
                    fun x y ->
                      buf.(0) <- x;
                      buf.(1) <- y;
                      bi.Easyml.Builtins.eval buf
              in
              mk [ a; b ] [ d ] (fun lk -> KM2 (lk d, lk a, lk b, ew, g))
          | _ -> None))
  | Op.Broadcast -> (
      let d = res () and a = op 0 in
      let w = ew_of d in
      match Ty.elem d.Value.ty with
      | Ty.F64 -> mk [ a ] [ d ] (fun lk -> KBcastF (lk d, lk a, w))
      | Ty.I64 -> mk [ a ] [ d ] (fun lk -> KBcastI (lk d, lk a, w))
      | _ -> None)
  | Op.Iota w ->
      let d = res () in
      mk [] [ d ] (fun lk -> KIota (lk d, w))
  | Op.MemLoad -> (
      let d = res () and mem = op 0 and ix = op 1 in
      match Hashtbl.find_opt rowmap mem.Value.id with
      | Some site ->
          let buf = site.ls_buf and stride = site.ls_stride in
          mk [ ix ] [ d ] (fun lk -> KRowLoad (lk d, buf, lk ix, stride))
      | None ->
          let mm = E.mslot c mem in
          mk [ ix ] [ d ] (fun lk -> KLoad (lk d, mm, lk ix)))
  | Op.MemStore ->
      let a = op 0 and mem = op 1 and ix = op 2 in
      if Hashtbl.mem rowmap mem.Value.id then None
      else
        let mm = E.mslot c mem in
        mk [ a; ix ] [] (fun lk -> KStore (lk a, mm, lk ix))
  | Op.VecLoad -> (
      let d = res () and mem = op 0 and ix = op 1 in
      let w = ew_of d in
      match Hashtbl.find_opt rowmap mem.Value.id with
      | Some site ->
          let buf = site.ls_buf and stride = site.ls_stride in
          mk [ ix ] [ d ] (fun lk -> KRowVLoad (lk d, buf, lk ix, w, stride))
      | None ->
          let mm = E.mslot c mem in
          mk [ ix ] [ d ] (fun lk -> KVLoad (lk d, mm, lk ix, w)))
  | Op.VecStore ->
      let a = op 0 and mem = op 1 and ix = op 2 in
      let w = ew_of a in
      if Hashtbl.mem rowmap mem.Value.id then None
      else
        let mm = E.mslot c mem in
        mk [ a; ix ] [] (fun lk -> KVStore (lk a, mm, lk ix, w))
  | Op.Gather ->
      let d = res () and mem = op 0 and ixs = op 1 in
      let w = ew_of ixs in
      if Hashtbl.mem rowmap mem.Value.id then None
      else
        let mm = E.mslot c mem in
        mk [ ixs ] [ d ] (fun lk -> KGather (lk d, mm, lk ixs, w))
  | Op.Scatter ->
      let a = op 0 and mem = op 1 and ixs = op 2 in
      let w = ew_of a in
      if Hashtbl.mem rowmap mem.Value.id then None
      else
        let mm = E.mslot c mem in
        mk [ a; ixs ] [] (fun lk -> KScatter (lk a, mm, lk ixs, w))
  | Op.Call _ -> (
      match Hashtbl.find_opt luts o.Op.o_id with
      | None -> None
      | Some site ->
          let x = site.ls_x in
          mk [ x ] [] (fun lk ->
              KLut
                {
                  k_buf = site.ls_buf;
                  k_mm = site.ls_mm;
                  k_x = lk x;
                  k_w = site.ls_w;
                  k_lo = site.ls_lo;
                  k_step = site.ls_step;
                  k_rows = site.ls_rows;
                  k_cols = site.ls_cols;
                  k_cubic = site.ls_cubic;
                }))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Planning: tileability gate, LUT sites, pairing, coalescing          *)
(* ------------------------------------------------------------------ *)

(* A live-in whose defining chain outside the loop is a literal constant
   (or a broadcast of one).  Its row contents never change between tile
   activations, so instead of re-importing it per activation (KImpVF
   alone costs [n × w] writes each time) the row is filled once, at
   compile time, and excluded from the executed stream. *)
type pre = PreF of float | PreI of int

type plan = {
  p_stream : ainstr array;  (** imports then body, in order *)
  p_prefill : (Value.t * pre) list;
      (** constant-provenance live-ins: rows filled once per compile,
          pinned live across the whole stream so they are never reused *)
  p_asn : Regalloc.assignment;
  p_strides : int array;  (** per LUT buffer: floats per tile block *)
  p_bytes : int;  (** coalesced register-file bytes per tile block *)
}

(* Live-in import: a value defined outside the loop is uniform across the
   tile; splat it from its per-op thunk register (written by the
   surrounding thunks before the loop runs). *)
let import_of (c : E.fctx) ~(iv : Value.t) (v : Value.t) : ainstr =
  if v.Value.id = iv.Value.id then
    { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KIv (lk v)) }
  else
    match v.Value.ty with
    | Ty.F64 ->
        let s = E.fslot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpF (lk v, s)) }
    | Ty.I64 ->
        let s = E.islot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpI (lk v, s)) }
    | Ty.I1 ->
        let s = E.bslot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpB (lk v, s)) }
    | Ty.Vec (w, Ty.F64) ->
        let s, _ = E.vfslot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpVF (lk v, w, s)) }
    | Ty.Vec (w, Ty.I64) ->
        let s, _ = E.vislot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpVI (lk v, w, s)) }
    | Ty.Vec (w, Ty.I1) ->
        let s, _ = E.vbslot c v in
        { a_uses = []; a_defs = [ v ]; a_emit = (fun lk -> KImpVB (lk v, w, s)) }
    | _ -> raise Not_tileable

(* Recognize the LUT call sites of a loop body and validate that each
   row buffer is private to the pattern: its only uses anywhere in the
   function are the one interp call plus loads inside this body (those
   get rewritten against the macro-op's private storage). *)
let find_lut_sites (c : E.fctx) (fn : Func.func) (body : Op.op list) :
    (int, lut_site) Hashtbl.t * (int, lut_site) Hashtbl.t * int array =
  let consts_f : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let consts_i : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Op.iter_region
    (fun o ->
      match (o.Op.kind, o.Op.results) with
      | Op.ConstF x, [| r |] -> Hashtbl.replace consts_f r.Value.id x
      | Op.ConstI x, [| r |] -> Hashtbl.replace consts_i r.Value.id x
      | _ -> ())
    fn.Func.f_body;
  let body_ids = Hashtbl.create 64 in
  List.iter (fun (o : Op.op) -> Hashtbl.replace body_ids o.Op.o_id ()) body;
  let row_private (call : Op.op) (row : Value.t) : bool =
    let ok = ref true in
    Op.iter_region
      (fun o ->
        if Array.exists (fun v -> v.Value.id = row.Value.id) o.Op.operands
           && o.Op.o_id <> call.Op.o_id
        then
          match o.Op.kind with
          | (Op.MemLoad | Op.VecLoad)
            when Hashtbl.mem body_ids o.Op.o_id
                 && o.Op.operands.(0).Value.id = row.Value.id ->
              ()
          | _ -> ok := false)
      fn.Func.f_body;
    !ok
  in
  let luts = Hashtbl.create 8 and rowmap = Hashtbl.create 8 in
  let strides = ref [] and nbuf = ref 0 in
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Call name -> (
          match lut_cubic_of_callee name with
          | None -> ()
          | Some cubic ->
              if Array.length o.Op.operands <> 7 then raise Not_tileable;
              let table = o.Op.operands.(0)
              and row = o.Op.operands.(1)
              and x = o.Op.operands.(2) in
              let cf v = Hashtbl.find_opt consts_f v.Value.id
              and ci v = Hashtbl.find_opt consts_i v.Value.id in
              let geom =
                match
                  ( cf o.Op.operands.(3),
                    cf o.Op.operands.(4),
                    ci o.Op.operands.(5),
                    ci o.Op.operands.(6) )
                with
                | Some lo, Some step, Some rows, Some cols ->
                    Some (lo, step, rows, cols)
                | _ -> None
              in
              (match geom with
              | None -> raise Not_tileable
              | Some (lo, step, rows, cols) ->
                  if
                    (not (Ty.is_float_like x.Value.ty))
                    || Hashtbl.mem rowmap row.Value.id
                    || not (row_private o row)
                  then raise Not_tileable;
                  let w = ew_of x in
                  let site =
                    {
                      ls_buf = !nbuf;
                      ls_mm = E.mslot c table;
                      ls_x = x;
                      ls_w = w;
                      ls_lo = lo;
                      ls_step = step;
                      ls_rows = rows;
                      ls_cols = cols;
                      ls_cubic = cubic;
                      ls_stride = cols * w;
                    }
                  in
                  incr nbuf;
                  strides := site.ls_stride :: !strides;
                  Hashtbl.replace luts o.Op.o_id site;
                  Hashtbl.replace rowmap row.Value.id site))
      | _ -> ())
    body;
  (luts, rowmap, Array.of_list (List.rev !strides))

(* Plan one [scf.for {parallel}]: straight-line body, every op selectable
   as a tile instruction, no loop-carried values.  Returns [None] when
   any of that fails (the caller falls back). *)
let plan_loop (c : E.fctx) ~(uc : (int, int) Hashtbl.t) (fn : Func.func)
    (o : Op.op) : plan option =
  match o.Op.kind with
  | Op.For { parallel = true }
    when Array.length o.Op.operands = 3
         && Array.length o.Op.results = 0
         && Array.length o.Op.regions = 1 -> (
      let r = o.Op.regions.(0) in
      match r.Op.r_args with
      | [ iv ] -> (
          try
            let ops =
              List.filter
                (fun (b : Op.op) ->
                  if Array.length b.Op.regions > 0 then raise Not_tileable;
                  match b.Op.kind with
                  | Op.Yield ->
                      if Array.length b.Op.operands > 0 then raise Not_tileable;
                      false
                  | Op.Return | Op.For _ -> raise Not_tileable
                  | _ -> true)
                r.Op.r_ops
            in
            let luts, rowmap, strides = find_lut_sites c fn ops in
            (* producer/consumer pairing (first body user of each value) *)
            let user_of : (int, Op.op) Hashtbl.t = Hashtbl.create 64 in
            List.iter
              (fun (b : Op.op) ->
                Array.iter
                  (fun (v : Value.t) ->
                    if not (Hashtbl.mem user_of v.Value.id) then
                      Hashtbl.add user_of v.Value.id b)
                  b.Op.operands)
              ops;
            let deferred : (int, unit) Hashtbl.t = Hashtbl.create 16 in
            let pair_of : (int, Op.op) Hashtbl.t = Hashtbl.create 16 in
            List.iter
              (fun (p : Op.op) ->
                if
                  Op.pure p
                  && Array.length p.Op.results = 1
                  && single_use uc p.Op.results.(0)
                  && not (Hashtbl.mem pair_of p.Op.o_id)
                then
                  match Hashtbl.find_opt user_of p.Op.results.(0).Value.id with
                  | Some consumer
                    when (not (Hashtbl.mem pair_of consumer.Op.o_id))
                         && (not (Hashtbl.mem deferred consumer.Op.o_id))
                         && pair_sel p consumer <> None ->
                      Hashtbl.add deferred p.Op.o_id ();
                      Hashtbl.add pair_of consumer.Op.o_id p
                  | _ -> ())
              ops;
            let body_stream =
              List.filter_map
                (fun (b : Op.op) ->
                  if Hashtbl.mem deferred b.Op.o_id then None
                  else
                    match Hashtbl.find_opt pair_of b.Op.o_id with
                    | Some p -> (
                        match pair_sel p b with
                        | Some ai -> Some ai
                        | None -> raise Not_tileable)
                    | None -> (
                        match sel_op c ~luts ~rowmap b with
                        | Some ai -> Some ai
                        | None -> raise Not_tileable))
                ops
            in
            (* constant provenance of values defined outside the loop:
               literal consts and broadcasts of them (every literal a
               vector kernel uses is the latter).  Body-defined
               values can land in this map too, but they are never import
               candidates, so the lookup below only ever sees live-ins. *)
            let prov : (int, pre) Hashtbl.t = Hashtbl.create 64 in
            Op.iter_region
              (fun (o : Op.op) ->
                match (o.Op.kind, o.Op.results) with
                | Op.ConstF x, [| res |] ->
                    Hashtbl.replace prov res.Value.id (PreF x)
                | Op.ConstI x, [| res |] ->
                    Hashtbl.replace prov res.Value.id (PreI x)
                | Op.Broadcast, [| res |] -> (
                    match Hashtbl.find_opt prov o.Op.operands.(0).Value.id with
                    | Some p -> Hashtbl.replace prov res.Value.id p
                    | None -> ())
                | _ -> ())
              fn.Func.f_body;
            (* live-in imports, in order of first use; constant-provenance
               live-ins become prefills instead of per-activation imports *)
            let defined = Hashtbl.create 64 in
            let imports = ref [] and prefills = ref [] in
            List.iter
              (fun ai ->
                List.iter
                  (fun (v : Value.t) ->
                    if not (Hashtbl.mem defined v.Value.id) then begin
                      Hashtbl.replace defined v.Value.id ();
                      match Hashtbl.find_opt prov v.Value.id with
                      | Some p when v.Value.id <> iv.Value.id ->
                          prefills := (v, p) :: !prefills
                      | _ -> imports := import_of c ~iv v :: !imports
                    end)
                  ai.a_uses;
                List.iter
                  (fun (v : Value.t) -> Hashtbl.replace defined v.Value.id ())
                  ai.a_defs)
              body_stream;
            let prefills = List.rev !prefills in
            let stream = Array.of_list (List.rev !imports @ body_stream) in
            (* register allocation sees the prefill defs as leading
               pseudo-instructions and one trailing pin that uses every
               prefill row: their live ranges span the whole stream, so
               linear scan never hands those rows to a body definition.
               The executed stream excludes both ends. *)
            let npre = List.length prefills in
            let ns = Array.length stream in
            let uses = Array.make (npre + ns + 1) []
            and defs = Array.make (npre + ns + 1) [] in
            List.iteri (fun i (v, _) -> defs.(i) <- [ areg_of v ]) prefills;
            Array.iteri
              (fun i ai ->
                uses.(npre + i) <- List.map areg_of ai.a_uses;
                defs.(npre + i) <- List.map areg_of ai.a_defs)
              stream;
            uses.(npre + ns) <- List.map (fun (v, _) -> areg_of v) prefills;
            let prog = { Regalloc.uses; defs } in
            let asn = Regalloc.allocate prog in
            let bytes =
              List.fold_left
                (fun acc (cls, cnt) ->
                  let kind = cls lsr 8 and ew = cls land 0xff in
                  acc + (cnt * ew * if kind = 2 then 1 else 8))
                0 asn.Regalloc.counts
              + Array.fold_left (fun acc s -> acc + (s * 8)) 0 strides
            in
            Some
              {
                p_stream = stream;
                p_prefill = prefills;
                p_asn = asn;
                p_strides = strides;
                p_bytes = bytes;
              }
          with Not_tileable -> None)
      | _ -> None)
  | _ -> None

let choose_tile ~(tile : int) (p : plan) : int =
  if tile > 0 then tile
  else
    max min_auto_tile
      (min max_auto_tile (l1_budget_bytes / max 1 p.p_bytes))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Materialize a plan: physical rows, private LUT storage, the tinstr
   array, and the driving tile loop.  [fallback] compiles the same loop
   with the per-op thunks; it is only forced for non-positive runtime
   steps (where tiling's iteration count formula does not apply). *)
let compile_tiled (c : E.fctx) ~(tile : int) ~(uc : (int, int) Hashtbl.t)
    (fn : Func.func) ~(fallback : (unit -> unit) Lazy.t) (o : Op.op) :
    (unit -> unit) option =
  match plan_loop c ~uc fn o with
  | None -> None
  | Some p ->
      let t = choose_tile ~tile p in
      let classes =
        List.sort (fun (a, _) (b, _) -> compare a b) p.p_asn.Regalloc.counts
      in
      let bases : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let kn = [| 0; 0; 0 |] in
      List.iter
        (fun (cls, cnt) ->
          let kind = cls lsr 8 in
          Hashtbl.replace bases cls kn.(kind);
          kn.(kind) <- kn.(kind) + cnt)
        classes;
      let fr = Array.make (max 1 kn.(0)) (Float.Array.create 0) in
      let ir = Array.make (max 1 kn.(1)) [||] in
      let br = Array.make (max 1 kn.(2)) [||] in
      List.iter
        (fun (cls, cnt) ->
          let kind = cls lsr 8 and ew = cls land 0xff in
          let base = Hashtbl.find bases cls in
          for j = base to base + cnt - 1 do
            match kind with
            | 0 -> fr.(j) <- Float.Array.make (t * ew) 0.0
            | 1 -> ir.(j) <- Array.make (t * ew) 0
            | _ -> br.(j) <- Array.make (t * ew) false
          done)
        classes;
      let lb =
        Array.map (fun s -> Float.Array.make (max 1 (t * s)) 0.0) p.p_strides
      in
      let look (v : Value.t) : int =
        let a = areg_of v in
        match Hashtbl.find_opt p.p_asn.Regalloc.slot_of a with
        | Some s -> Hashtbl.find bases a.Regalloc.vclass + s
        | None -> fail "batched: value %%%d has no row" v.Value.id
      in
      (* constant rows: filled once here, for the full tile extent, so
         any activation count [n <= t] reads prefilled data; the
         executed stream never writes them (pinned in the allocation) *)
      List.iter
        (fun ((v : Value.t), pre) ->
          let row = look v and ew = ew_of v in
          match pre with
          | PreF x -> Float.Array.fill fr.(row) 0 (t * ew) x
          | PreI x -> Array.fill ir.(row) 0 (t * ew) x)
        p.p_prefill;
      if p.p_prefill <> [] then
        Obs.Tracer.count "batched.prefill_rows"
          (float_of_int (List.length p.p_prefill));
      let code = Array.map (fun ai -> ai.a_emit look) p.p_stream in
      let st = { fr; ir; br; lb; base = 0; stp = 1; n = 0 } in
      let run = exec_tile code st c.E.env in
      let lbs = E.islot c o.Op.operands.(0)
      and ubs = E.islot c o.Op.operands.(1)
      and sts = E.islot c o.Op.operands.(2) in
      let env = c.E.env in
      Some
        (fun () ->
          let lo = env.E.i.(lbs)
          and hi = env.E.i.(ubs)
          and stp = env.E.i.(sts) in
          if stp <= 0 then Lazy.force fallback ()
          else begin
            let niter = if hi <= lo then 0 else ((hi - lo) + stp - 1) / stp in
            st.stp <- stp;
            let donec = ref 0 in
            while !donec < niter do
              let nb = min t (niter - !donec) in
              st.n <- nb;
              st.base <- lo + (!donec * stp);
              run ();
              Obs.Tracer.count "batched.tiles" 1.0;
              donec := !donec + nb
            done
          end)

let compile_func ?(tile = 0) ~(get : string -> E.compiled) (fn : Func.func) :
    E.compiled =
  Obs.Tracer.with_span ("batched.compile:" ^ fn.Func.f_name) @@ fun () ->
  let c = E.make_fctx fn ~get in
  let uc = use_counts fn in
  let rec region ~on_yield (r : Op.region) : unit -> unit =
    let thunks =
      List.map
        (fun (o : Op.op) ->
          match o.Op.kind with
          | Op.Yield -> on_yield o
          | Op.For { parallel = true } -> (
              let fallback = lazy (E.compile_op c ~compile_region:region o) in
              match
                Obs.Tracer.with_span "batched.plan" (fun () ->
                    compile_tiled c ~tile ~uc fn ~fallback o)
              with
              | Some th -> th
              | None -> Lazy.force fallback)
          | _ -> E.compile_op c ~compile_region:region o)
        r.Op.r_ops
      |> Array.of_list
    in
    fun () ->
      for k = 0 to Array.length thunks - 1 do
        (Array.unsafe_get thunks k) ()
      done
  in
  let body =
    region fn.Func.f_body ~on_yield:(fun _ ->
        fail "batched: yield outside a loop")
  in
  E.finish c fn ~body

let compile_module ?externs ?(tile = 0) (m : Func.modl) :
    string -> E.compiled =
  E.module_linker ?externs m (fun ~get f -> compile_func ~tile ~get f)

let run ?externs ?(tile = 0) (m : Func.modl) (name : string)
    (args : Rt.v array) : Rt.v array =
  (compile_module ?externs ~tile m) name args

(* The driver needs the resolved tile size before it carves Domain-parallel
   chunks (chunk boundaries must fall on tile boundaries, or two domains
   would share a tile's scratch rows).  Planning is deterministic and
   independent of [get], so this always matches what
   {!compile_func} will pick for the same [tile] argument. *)
let plan_tile ?(tile = 0) (m : Func.modl) ~(name : string) : int =
  if tile > 0 then tile
  else
    match Func.find_func m name with
    | None -> 1
    | Some fn ->
        let c =
          E.make_fctx fn ~get:(fun n -> fun _ -> fail "plan_tile: call %s" n)
        in
        let uc = use_counts fn in
        let found = ref 0 in
        Op.iter_region
          (fun o ->
            if !found = 0 then
              match o.Op.kind with
              | Op.For { parallel = true } -> (
                  match plan_loop c ~uc fn o with
                  | Some p -> found := choose_tile ~tile:0 p
                  | None -> ())
              | _ -> ())
          fn.Func.f_body;
        if !found > 0 then !found else 1
