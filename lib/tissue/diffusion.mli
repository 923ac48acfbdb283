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

val solve : t -> floatarray -> floatarray
(** [solve op b] returns [x] with [(I − dt·λ·L) x = b].  The direct 1-D
    path is exact (Thomas); the CG path iterates to relative residual
    [1e-12] (documented tolerance — far below the splitting error) and
    is deterministic, so repeated runs are bitwise identical. *)

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
