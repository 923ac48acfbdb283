(** IR operations.

    Ops are grouped by the MLIR dialect they correspond to (arith, math,
    vector, memref, scf, func).  As in MLIR, structured control flow carries
    nested regions; every region here is a single block with arguments
    ([scf.for]'s induction variable and loop-carried values). *)

type fbin = FAdd | FSub | FMul | FDiv | FMin | FMax
type ibin = IAdd | ISub | IMul | IDiv | IRem
type bbin = BAnd | BOr
type cmp = Lt | Le | Gt | Ge | Eq | Ne

type kind =
  (* arith dialect *)
  | ConstF of float  (** () -> f64 *)
  | ConstI of int  (** () -> i64 *)
  | BinF of fbin  (** (T, T) -> T, T float-like *)
  | NegF  (** (T) -> T *)
  | BinI of ibin  (** (i64, i64) -> i64 *)
  | BinB of bbin  (** (B, B) -> B, B bool-like *)
  | NotB  (** (B) -> B *)
  | CmpF of cmp  (** (T, T) -> bool-like of same width *)
  | Select  (** (B, T, T) -> T with matching widths, T float- or bool-like *)
  | SIToFP  (** (int-like) -> float-like, same width *)
  (* math dialect: name refers to the Easyml builtin registry *)
  | Math of string  (** (T, ...) -> T, all float-like of equal shape *)
  (* vector dialect *)
  | Broadcast  (** (scalar) -> vector of it; width from result type *)
  | VecLoad  (** (memref, i64) -> vector<wxf64>, contiguous *)
  | VecStore  (** (vector<wxf64>, memref, i64) -> (), contiguous *)
  | Gather  (** (memref, vector<wxi64>) -> vector<wxf64> *)
  | Scatter  (** (vector<wxf64>, memref, vector<wxi64>) -> () *)
  | Iota of int  (** () -> vector<wxi64> = [0, 1, ..., w-1] *)
  (* memref dialect *)
  | MemLoad  (** (memref, i64) -> f64 *)
  | MemStore  (** (f64, memref, i64) -> () *)
  (* scf dialect *)
  | For of { parallel : bool }
      (** operands (lb, ub, step, init...); one region whose block args are
          (iv : i64, iter...); results are the final iter values *)
  | Yield  (** terminator of scf.for regions; operands feed the iters *)
  (* func dialect *)
  | Call of string  (** results/operands per the callee's signature *)
  | Return

(** A region is a single block: argument values plus an op list, stored in
    execution order. *)
type region = { r_args : Value.t list; mutable r_ops : op list }

and op = {
  o_id : int;  (** unique within a builder context; analysis-result key *)
  kind : kind;
  operands : Value.t array;
  results : Value.t array;
  regions : region array;
}

val fbin_name : fbin -> string
val ibin_name : ibin -> string
val bbin_name : bbin -> string
val cmp_name : cmp -> string
val kind_name : kind -> string

val fbin_short : fbin -> string
(** Short mnemonic ([fadd], [fmul], …) for symbolic-term printers
    ({!Analysis.Transval}); {!fbin_name} stays the dialect name. *)

val ibin_short : ibin -> string
val bbin_short : bbin -> string

val pure : op -> bool
(** Is this op free of side effects (so CSE/DCE may touch it)?  Loads are
    not [pure]: they are only movable in the absence of interleaved stores,
    which callers must establish separately (see {!Analysis.Footprint}). *)

val iter_region : (op -> unit) -> region -> unit
(** Iterate over every op in a region, depth first, outer-to-inner. *)

val fold_region : ('a -> op -> 'a) -> 'a -> region -> 'a
(** Fold over every op in a region, depth first. *)

val count_ops : region -> int
(** Number of ops in a region, including nested ones. *)
