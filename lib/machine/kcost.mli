(** Static cost analysis of generated kernels: per-cell cycle/flop/byte
    accounting from the IR, the source of both the execution-time model
    and the roofline coordinates. *)

type metrics = {
  cycles_per_cell : float;
  flops_per_cell : float;
  bytes_per_cell : float;
  preamble_cycles : float;  (** per kernel invocation (hoisted ops) *)
  loads_per_cell : float;
  stores_per_cell : float;
}

val analyze : Arch.t -> scalar_math:bool -> Ir.Func.func -> metrics
(** Walk a [compute]-shaped function (one top-level cell loop); nested
    constant-trip loops are scaled. *)

val of_kernel : Codegen.Kernel.t -> metrics
(** Analyze a generated kernel under the architecture matching its width. *)
