(** Definite-initialization (use-before-def) analysis for local buffers.

    A {e must}-analysis over [memref.alloc]'d buffers: a read is clean
    only when every element it may touch has definitely been written on
    every path reaching it.  Parameter memrefs are the caller's problem
    (the driver hands kernels fully-initialized buffers), so only allocs
    are tracked.  Stores extend the must-initialized set only when their
    coverage is exact (constant indices, or complete [for]-loop sweeps
    with step <= store width); [scf.if] intersects the branch states;
    loop bodies are checked against the entry state. *)

type issue = {
  mi_op : Ir.Op.op;  (** the offending read *)
  mi_alloc : int;  (** op id of the alloc it reads *)
  mi_msg : string;
}

val check_func : Ir.Func.func -> issue list
(** Reads of alloc'd buffers not provably preceded by covering writes,
    in program order. *)
