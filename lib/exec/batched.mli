(** Tile-batched execution engine (loop inversion).

    A kernel's [scf.for {parallel}] cell loop is lowered once into *tile
    ops*, each executing one instruction across a whole tile of K vector
    blocks via a tight loop over an unboxed row —
    dispatch cost O(instrs × tiles) instead of O(instrs × cells).  Scratch
    rows are coalesced by live range ({!Regalloc}) so the per-tile register
    file stays L1-resident, and LUT interpolation runs as one fused
    macro-op per call site mirroring {!Runtime.Lut} operation for
    operation.  Loops that do not fit the tiling gate (loop-carried values,
    nested control flow, unrecognized ops) and functions without a parallel
    loop run on the per-op thunks ({!Engine.compile_op});
    results are bitwise identical to the other engines either way, for
    every tile size. *)

val compile_func :
  ?tile:int -> get:(string -> Engine.compiled) -> Ir.Func.func -> Engine.compiled
(** Compile one function against a callee lookup.  [tile] is the tile
    size in vector blocks; [0] (default) sizes the tile so the coalesced
    register file fits a 32 KiB L1 budget. *)

val compile_module :
  ?externs:Rt.registry ->
  ?tile:int ->
  Ir.Func.modl ->
  string ->
  Engine.compiled
(** Lazy per-function compile-and-link ({!Engine.module_linker}); unknown
    names fall back to the extern registry. *)

val run :
  ?externs:Rt.registry ->
  ?tile:int ->
  Ir.Func.modl ->
  string ->
  Rt.v array ->
  Rt.v array
(** Compile and invoke one function. *)

val plan_tile : ?tile:int -> Ir.Func.modl -> name:string -> int
(** The tile size (in vector blocks) {!compile_func} will use for the
    named function's cell loop, resolved without compiling: an explicit
    [tile > 0] verbatim, else the auto-sized tile, else [1] when the
    function has no tileable loop.  The driver aligns Domain-parallel
    chunk boundaries to this. *)
