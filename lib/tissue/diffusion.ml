(** Implicit diffusion operator: [(I − dt·λ·L) x = b] with λ = σ/dx²
    and L the Neumann-boundary Laplacian of the geometry. *)

(* What a solve reads that never changes from step to step is built at
   [assemble]: the cable's elimination, the sheet's CG vectors. *)
type op =
  | Tri of {
      sub : floatarray;
      diag : floatarray;
      sup : floatarray;
      lu : Solver.Tridiag.factored;
    }
  | Csr of { m : Solver.Sparse.t; ws : Solver.Cg.workspace }

type t = { n : int; op : op; mutable last_cg : Solver.Cg.stats option }

let cg_tol = 1e-12
let cg_max_iters = 10_000

let assemble_cable ~(n : int) ~(lambda : float) : op =
  let sub = Float.Array.make n 0.0
  and diag = Float.Array.make n 0.0
  and sup = Float.Array.make n 0.0 in
  for i = 0 to n - 1 do
    let left = i > 0 and right = i < n - 1 in
    let deg = (if left then 1.0 else 0.0) +. if right then 1.0 else 0.0 in
    Float.Array.set sub i (if left then -.lambda else 0.0);
    Float.Array.set sup i (if right then -.lambda else 0.0);
    Float.Array.set diag i (1.0 +. (lambda *. deg))
  done;
  Tri { sub; diag; sup; lu = Solver.Tridiag.factor ~a:sub ~b:diag ~c:sup }

let assemble_sheet ~(nx : int) ~(ny : int) ~(lambda : float) : op =
  (* 5-point stencil, Neumann boundaries: diagonal 1 + λ·degree,
     −λ per edge; row-major cell = y·nx + x *)
  let triplets = ref [] in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let i = (y * nx) + x in
      let neighbors =
        List.filter_map
          (fun (dx, dy) ->
            let x' = x + dx and y' = y + dy in
            if x' >= 0 && x' < nx && y' >= 0 && y' < ny then
              Some ((y' * nx) + x')
            else None)
          [ (-1, 0); (1, 0); (0, -1); (0, 1) ]
      in
      triplets :=
        (i, i, 1.0 +. (lambda *. float_of_int (List.length neighbors)))
        :: !triplets;
      List.iter
        (fun j -> triplets := (i, j, -.lambda) :: !triplets)
        neighbors
    done
  done;
  let m = Solver.Sparse.of_triplets ~n:(nx * ny) !triplets in
  Csr { m; ws = Solver.Cg.workspace m }

let assemble (g : Geometry.t) ~(sigma : float) ~(dt : float) : t =
  if sigma < 0.0 then invalid_arg "Diffusion.assemble: sigma must be >= 0";
  if dt <= 0.0 then invalid_arg "Diffusion.assemble: dt must be positive";
  let dx = Geometry.dx g in
  let lambda = dt *. sigma /. (dx *. dx) in
  let op =
    match g with
    | Geometry.Cable { n; _ } -> assemble_cable ~n ~lambda
    | Geometry.Sheet { nx; ny; _ } -> assemble_sheet ~nx ~ny ~lambda
  in
  { n = Geometry.cells g; op; last_cg = None }

let solve_into (t : t) (b : floatarray) ~(x : floatarray) : unit =
  if Float.Array.length b <> t.n then
    invalid_arg "Diffusion.solve: rhs length mismatch";
  match t.op with
  | Tri { lu; _ } -> Solver.Tridiag.solve_into lu ~d:b ~x
  | Csr { ws; _ } ->
      t.last_cg <-
        Some
          (Solver.Cg.solve_into ~tol:cg_tol ~max_iters:cg_max_iters ws b ~x)

let solve (t : t) (b : floatarray) : floatarray =
  let x = Float.Array.make t.n 0.0 in
  solve_into t b ~x;
  x

let matrix (t : t) : Solver.Sparse.t =
  match t.op with
  | Csr { m; _ } -> m
  | Tri { sub; diag; sup; _ } ->
      let triplets = ref [] in
      for i = 0 to t.n - 1 do
        triplets := (i, i, Float.Array.get diag i) :: !triplets;
        if i > 0 then
          triplets := (i, i - 1, Float.Array.get sub i) :: !triplets;
        if i < t.n - 1 then
          triplets := (i, i + 1, Float.Array.get sup i) :: !triplets
      done;
      Solver.Sparse.of_triplets ~n:t.n !triplets

let cg_stats (t : t) : Solver.Cg.stats option = t.last_cg

(* [not (r <= tol)] also rejects a NaN residual *)
let converged (s : Solver.Cg.stats) : bool = s.Solver.Cg.residual <= cg_tol
