(** Implicit diffusion operator for the monodomain split step.

    Assembles and solves [(I − dt·λ·L) x = b] where [L] is the
    Neumann-boundary graph Laplacian of the geometry and
    [λ = σ/dx²] — tridiagonal Thomas on a {!Geometry.Cable}, 5-point
    CSR with Jacobi-preconditioned CG on a {!Geometry.Sheet}. *)

type t

val assemble : Geometry.t -> sigma:float -> dt:float -> t
(** The factored operator for one diffusion (sub)step of length [dt]
    with effective diffusivity [sigma] (cm²/ms).
    @raise Invalid_argument when [sigma < 0] or [dt <= 0]. *)

val solve_into : t -> floatarray -> x:floatarray -> unit
(** [solve_into op b ~x] writes [x] with [(I − dt·λ·L) x = b] into
    [x.(0..n-1)] and allocates nothing.  [x] may be longer than the
    cell count (the driver's padded Vm) and may be [b] itself.  The
    direct 1-D path is exact (Thomas, eliminated once at {!assemble});
    the CG path iterates from a zero start to relative residual [1e-12]
    (documented tolerance — far below the splitting error) in vectors
    allocated at {!assemble}, and is deterministic, so repeated runs are
    bitwise identical.
    @raise Invalid_argument when [b] is not one value per cell or [x]
    is shorter. *)

val solve : t -> floatarray -> floatarray
(** [solve op b] is {!solve_into} a fresh array. *)

val matrix : t -> Solver.Sparse.t
(** The operator as CSR (cross-validation against the direct solve). *)

val cg_stats : t -> Solver.Cg.stats option
(** Convergence statistics of the most recent CG solve ([None] on the
    tridiagonal path or before the first solve). *)

val cg_tol : float
(** The CG path's relative-residual tolerance, [1e-12]. *)

val cg_max_iters : int
(** The CG path's iteration budget, [10_000]. *)

val converged : Solver.Cg.stats -> bool
(** The solve met {!cg_tol}: false for a non-finite residual (a NaN or
    Inf in the right-hand side, in which case every entry of the
    returned solution is NaN) and for a used-up iteration budget. *)
