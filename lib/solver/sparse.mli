(** Compressed-sparse-row matrices for the solver stage. *)

type t = {
  n : int;  (** square dimension *)
  row_ptr : int array;  (** length [n+1] *)
  col_idx : int array;
  values : floatarray;
}

val of_triplets : n:int -> (int * int * float) list -> t
(** Build from (row, col, value) triplets; duplicates are summed.
    @raise Invalid_argument on out-of-range indices. *)

val nnz : t -> int
val mul : t -> floatarray -> floatarray
(** [mul m x] is the matrix-vector product [m x]. *)

val diagonal : t -> floatarray
(** Row-wise diagonal entries (0 where absent). *)
