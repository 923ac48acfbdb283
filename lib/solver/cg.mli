(** Conjugate gradients with Jacobi preconditioning. *)

type stats = { iterations : int; residual : float }

val dot : floatarray -> floatarray -> float
val axpy : alpha:float -> floatarray -> floatarray -> unit
(** [axpy ~alpha x y] updates [y <- y + alpha x] in place. *)

type workspace
(** The vectors of one solve and the inverted Jacobi diagonal, built
    once per matrix so that a solve allocates nothing.  A solve leaves
    no state behind that the next one reads. *)

val workspace : Sparse.t -> workspace

val solve_into :
  tol:float ->
  max_iters:int ->
  workspace ->
  floatarray ->
  x:floatarray ->
  stats
(** [solve_into ~tol ~max_iters w b ~x] solves [A x = b] for the
    workspace's symmetric positive-definite [A], from a zero start, to
    relative residual [tol] or [max_iters] iterations, and writes the
    solution into [x.(0..n-1)].  [x] may be longer than [n] (a padded
    buffer) and may be [b] itself.  [residual] is the relative 2-norm
    residual at exit; when it is not finite, every entry written is
    NaN.
    @raise Invalid_argument when [b] is not of length [n] or [x] is
    shorter. *)

val solve :
  ?tol:float -> ?max_iters:int -> Sparse.t -> floatarray -> floatarray * stats
(** {!solve_into} a fresh vector with a fresh workspace ([tol] defaults
    to [1e-10], [max_iters] to 1000): the solution and convergence
    statistics. *)
