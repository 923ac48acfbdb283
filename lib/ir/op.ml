(** IR operations.

    Ops are grouped by the MLIR dialect they correspond to (arith, math,
    vector, memref, scf, func).  As in MLIR, structured control flow carries
    nested regions; every region here is a single block with arguments
    ([scf.for]'s induction variable and loop-carried values).  The paper's
    point — and ours — is that no *new* dialect is needed: ionic models
    lower onto exactly this op set.  It holds nothing the lowering cannot
    emit: every conditional is if-converted into [arith.select], so there
    is no [scf.if], and kernels only address caller buffers, so there is
    no [memref.alloc]. *)

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
          (iv : i64, iter... ); results are the final iter values.  The
          [parallel] flag plays the role of the omp dialect's parallel-for
          wrapper in the paper's generated code. *)
  | Yield  (** terminator of scf.for regions; operands feed the iters *)
  (* func dialect *)
  | Call of string  (** results/operands per the callee's signature *)
  | Return

(* A region is a single block: argument values plus an op list.  ops are
   stored in execution order. *)
type region = { r_args : Value.t list; mutable r_ops : op list }

and op = {
  o_id : int;
  kind : kind;
  operands : Value.t array;
  results : Value.t array;
  regions : region array;
}

let fbin_name = function
  | FAdd -> "arith.addf"
  | FSub -> "arith.subf"
  | FMul -> "arith.mulf"
  | FDiv -> "arith.divf"
  | FMin -> "arith.minf"
  | FMax -> "arith.maxf"

let ibin_name = function
  | IAdd -> "arith.addi"
  | ISub -> "arith.subi"
  | IMul -> "arith.muli"
  | IDiv -> "arith.divsi"
  | IRem -> "arith.remsi"

let bbin_name = function
  | BAnd -> "arith.andi"
  | BOr -> "arith.ori"

let cmp_name = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let kind_name = function
  | ConstF _ | ConstI _ -> "arith.constant"
  | BinF b -> fbin_name b
  | NegF -> "arith.negf"
  | BinI b -> ibin_name b
  | BinB b -> bbin_name b
  | NotB -> "arith.not"
  | CmpF _ -> "arith.cmpf"
  | Select -> "arith.select"
  | SIToFP -> "arith.sitofp"
  | Math m -> "math." ^ m
  | Broadcast -> "vector.broadcast"
  | VecLoad -> "vector.load"
  | VecStore -> "vector.store"
  | Gather -> "vector.gather"
  | Scatter -> "vector.scatter"
  | Iota _ -> "vector.step"
  | MemLoad -> "memref.load"
  | MemStore -> "memref.store"
  | For { parallel } -> if parallel then "scf.parallel" else "scf.for"
  | Yield -> "scf.yield"
  | Call f -> "func.call @" ^ f
  | Return -> "func.return"

(* Short mnemonics for symbolic-term printers built on top of the IR
   (the translation validator renders terms like [fadd(t1, t2)] rather
   than full dialect names). *)
let fbin_short = function
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"
  | FMin -> "fmin"
  | FMax -> "fmax"

let ibin_short = function
  | IAdd -> "iadd"
  | ISub -> "isub"
  | IMul -> "imul"
  | IDiv -> "idiv"
  | IRem -> "irem"

let bbin_short = function BAnd -> "and" | BOr -> "or"

(** Is this op free of side effects (so CSE/DCE may touch it)? *)
let pure (o : op) : bool =
  match o.kind with
  | MemStore | VecStore | Scatter | Call _ | Return | Yield -> false
  | For _ ->
      (* a loop is pure iff its body is; handled by passes *)
      false
  | ConstF _ | ConstI _ | BinF _ | NegF | BinI _ | BinB _ | NotB | CmpF _
  | Select | SIToFP | Math _ | Broadcast | Iota _ ->
      true
  | VecLoad | MemLoad | Gather ->
      (* loads are pure only in the absence of interleaved stores; the
         passes that use [pure] handle memory separately *)
      false

(** Iterate over every op in a region, depth first, outer-to-inner. *)
let rec iter_region (f : op -> unit) (r : region) : unit =
  List.iter
    (fun o ->
      f o;
      Array.iter (iter_region f) o.regions)
    r.r_ops

(** Fold over every op in a region, depth first. *)
let fold_region (f : 'a -> op -> 'a) (init : 'a) (r : region) : 'a =
  let acc = ref init in
  iter_region (fun o -> acc := f !acc o) r;
  !acc

(** Number of ops in a region, including nested ones. *)
let count_ops (r : region) : int = fold_region (fun n _ -> n + 1) 0 r
