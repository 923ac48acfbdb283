(** Domain-based parallel-for with a static schedule — the OCaml stand-in
    for [#pragma omp parallel for schedule(static)]. *)

val chunks : nthreads:int -> lo:int -> hi:int -> (int * int) list
(** Per-thread [(lo, hi)] ranges; a partition of [lo, hi) balanced to
    within one iteration. @raise Invalid_argument when [nthreads <= 0]. *)

val parallel_for_chunks :
  nthreads:int -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** Run [body k chunk_lo chunk_hi] for every chunk [k] concurrently
    (chunk 0 on the calling domain).  Bodies must write disjoint data;
    the chunk index is for per-domain resources such as non-reentrant
    kernel instances. *)
