(** Tridiagonal direct solver (Thomas algorithm). *)

exception Singular of int
(** Raised with the row index when a pivot vanishes. *)

type factored
(** A tridiagonal matrix with its elimination done: the pivots and the
    scaled super-diagonal, so each solve only sweeps. *)

val factor : a:floatarray -> b:floatarray -> c:floatarray -> factored
(** [factor ~a ~b ~c] eliminates the matrix with sub-diagonal [a]
    ([a.(0)] unused), diagonal [b] and super-diagonal [c] ([c.(n-1)]
    unused).  The arrays are copied, not kept.
    @raise Singular when elimination hits a zero pivot.
    @raise Invalid_argument on length mismatch. *)

val solve_into : factored -> d:floatarray -> x:floatarray -> unit
(** [solve_into f ~d ~x] writes the solution of [A x = d] into
    [x.(0..n-1)], reading [d.(0..n-1)].  Either vector may be longer
    than the system (a padded buffer), [x] may be [d] itself, and
    nothing is allocated.  Bitwise identical to eliminating afresh.
    @raise Invalid_argument when [d] or [x] is shorter than the system. *)

val solve :
  a:floatarray -> b:floatarray -> c:floatarray -> d:floatarray -> floatarray
(** [solve ~a ~b ~c ~d] is {!factor} then {!solve_into} a fresh array:
    the solution of the tridiagonal system with right-hand side [d].
    O(n).
    @raise Singular when elimination hits a zero pivot.
    @raise Invalid_argument on length mismatch. *)

val mul :
  a:floatarray -> b:floatarray -> c:floatarray -> floatarray -> floatarray
(** Multiply the tridiagonal matrix by a vector (residual checks). *)
