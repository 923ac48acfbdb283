(** Conjugate-gradient solver with Jacobi preconditioning.

    The general-sparse counterpart to {!Tridiag} for the solver stage; used
    by the tissue example and tested against the direct solver on
    tridiagonal systems.  [solve] stops at relative residual [tol] or
    after [max_iters] iterations; callers must check [residual] — it is
    NaN (and so is every entry of [x]) when [b] is not finite. *)

type stats = { iterations : int; residual : float }

let dot (a : floatarray) (b : floatarray) : float =
  let acc = ref 0.0 in
  for i = 0 to Float.Array.length a - 1 do
    acc := !acc +. (Float.Array.get a i *. Float.Array.get b i)
  done;
  !acc

let axpy ~(alpha : float) (x : floatarray) (y : floatarray) : unit =
  (* y <- y + alpha x *)
  for i = 0 to Float.Array.length y - 1 do
    Float.Array.set y i (Float.Array.get y i +. (alpha *. Float.Array.get x i))
  done

let solve ?(tol = 1e-10) ?(max_iters = 1000) (m : Sparse.t) (b : floatarray) :
    floatarray * stats =
  let n = m.Sparse.n in
  if Float.Array.length b <> n then invalid_arg "Cg.solve: length mismatch";
  let x = Float.Array.make n 0.0 in
  let r = Float.Array.copy b in
  let dinv =
    Float.Array.map
      (fun d -> if Float.abs d > 1e-300 then 1.0 /. d else 1.0)
      (Sparse.diagonal m)
  in
  let z = Float.Array.map2 ( *. ) dinv r in
  let p = Float.Array.copy z in
  let rz = ref (dot r z) in
  let bnorm = Float.max (Float.sqrt (dot b b)) 1e-300 in
  let iters = ref 0 in
  let res = ref (Float.sqrt (dot r r) /. bnorm) in
  (try
     while !res > tol && !iters < max_iters do
       let ap = Sparse.mul m p in
       let pap = dot p ap in
       if Float.abs pap < 1e-300 then raise Exit;
       let alpha = !rz /. pap in
       axpy ~alpha p x;
       axpy ~alpha:(-.alpha) ap r;
       let z = Float.Array.map2 ( *. ) dinv r in
       let rz' = dot r z in
       let beta = rz' /. !rz in
       rz := rz';
       for i = 0 to n - 1 do
         Float.Array.set p i (Float.Array.get z i +. (beta *. Float.Array.get p i))
       done;
       incr iters;
       res := Float.sqrt (dot r r) /. bnorm
     done
   with Exit -> ());
  (* a non-finite residual (a NaN or Inf in [b]) leaves no solution to
     report: say so in every entry instead of returning the zero start *)
  if not (Float.is_finite !res) then Float.Array.fill x 0 n Float.nan;
  (x, { iterations = !iters; residual = !res })
