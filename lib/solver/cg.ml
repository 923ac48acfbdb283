(** Conjugate-gradient solver with Jacobi preconditioning.

    The general-sparse counterpart to {!Tridiag} for the solver stage; used
    by the tissue example and tested against the direct solver on
    tridiagonal systems.  [solve] stops at relative residual [tol] or
    after [max_iters] iterations; callers must check [residual] — it is
    NaN (and so is every entry of [x]) when [b] is not finite. *)

type stats = { iterations : int; residual : float }

(* [dot] and [axpy] are inlined, so a solve's iteration boxes no float:
   called, each would allocate the float it returns or takes. *)
let[@inline] dot (a : floatarray) (b : floatarray) : float =
  let acc = ref 0.0 in
  for i = 0 to Float.Array.length a - 1 do
    acc := !acc +. (Float.Array.get a i *. Float.Array.get b i)
  done;
  !acc

let[@inline] axpy ~(alpha : float) (x : floatarray) (y : floatarray) : unit =
  (* y <- y + alpha x *)
  for i = 0 to Float.Array.length y - 1 do
    Float.Array.set y i (Float.Array.get y i +. (alpha *. Float.Array.get x i))
  done

(* The solve's vectors and the inverted Jacobi diagonal, allocated once
   per matrix: a solve then allocates nothing. *)
type workspace = {
  m : Sparse.t;
  dinv : floatarray;
  x : floatarray;
  r : floatarray;
  z : floatarray;
  p : floatarray;
  ap : floatarray;
}

let workspace (m : Sparse.t) : workspace =
  let vec () = Float.Array.make m.Sparse.n 0.0 in
  {
    m;
    dinv =
      Float.Array.map
        (fun d -> if Float.abs d > 1e-300 then 1.0 /. d else 1.0)
        (Sparse.diagonal m);
    x = vec ();
    r = vec ();
    z = vec ();
    p = vec ();
    ap = vec ();
  }

let solve_into ~(tol : float) ~(max_iters : int) (w : workspace)
    (b : floatarray) ~(x : floatarray) : stats =
  let n = w.m.Sparse.n in
  if Float.Array.length b <> n || Float.Array.length x < n then
    invalid_arg "Cg.solve_into: length mismatch";
  let get = Float.Array.get and set = Float.Array.set in
  let dinv = w.dinv and r = w.r and z = w.z and p = w.p and ap = w.ap in
  Float.Array.fill w.x 0 n 0.0;
  Float.Array.blit b 0 r 0 n;
  for i = 0 to n - 1 do
    set z i (get dinv i *. get r i)
  done;
  Float.Array.blit z 0 p 0 n;
  let rz = ref (dot r z) in
  let bnorm = Float.max (Float.sqrt (dot b b)) 1e-300 in
  let iters = ref 0 in
  let res = ref (Float.sqrt (dot r r) /. bnorm) in
  let stalled = ref false in
  while (not !stalled) && !res > tol && !iters < max_iters do
    Sparse.mul_into w.m p ~y:ap;
    let pap = dot p ap in
    if Float.abs pap < 1e-300 then stalled := true
    else begin
      let alpha = !rz /. pap in
      axpy ~alpha p w.x;
      axpy ~alpha:(-.alpha) ap r;
      for i = 0 to n - 1 do
        set z i (get dinv i *. get r i)
      done;
      let rz' = dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        set p i (get z i +. (beta *. get p i))
      done;
      incr iters;
      res := Float.sqrt (dot r r) /. bnorm
    end
  done;
  (* a non-finite residual (a NaN or Inf in [b]) leaves no solution to
     report: say so in every entry instead of returning the zero start *)
  if not (Float.is_finite !res) then Float.Array.fill w.x 0 n Float.nan;
  Float.Array.blit w.x 0 x 0 n;
  { iterations = !iters; residual = !res }

let solve ?(tol = 1e-10) ?(max_iters = 1000) (m : Sparse.t) (b : floatarray) :
    floatarray * stats =
  let x = Float.Array.make m.Sparse.n 0.0 in
  let stats = solve_into ~tol ~max_iters (workspace m) b ~x in
  (x, stats)
