(** Tridiagonal solver (Thomas algorithm).

    Solves [A x = d] where A has sub-diagonal [a] (a.(0) unused), diagonal
    [b], super-diagonal [c] (c.(n-1) unused).  O(n); the workhorse of the
    semi-implicit 1-D cable solve.  The elimination depends on the matrix
    alone, so {!factor} runs it once and {!solve_into} only sweeps. *)

exception Singular of int

(* The eliminated matrix: the pivots [m_i = b_i − a_i·c_{i−1}/m_{i−1}]
   and the scaled super-diagonal [cm_i = c_i / m_i]. *)
type factored = { n : int; a : floatarray; m : floatarray; cm : floatarray }

let factor ~(a : floatarray) ~(b : floatarray) ~(c : floatarray) : factored
    =
  let n = Float.Array.length b in
  if Float.Array.length a <> n || Float.Array.length c <> n then
    invalid_arg "Tridiag.factor: length mismatch";
  let m = Float.Array.make n 0.0 and cm = Float.Array.make n 0.0 in
  let get = Float.Array.get and set = Float.Array.set in
  for i = 0 to n - 1 do
    let mi = if i = 0 then get b 0 else get b i -. (get a i *. get cm (i - 1)) in
    if Float.abs mi < 1e-300 then raise (Singular i);
    set m i mi;
    set cm i (get c i /. mi)
  done;
  { n; a = Float.Array.copy a; m; cm }

let solve_into (f : factored) ~(d : floatarray) ~(x : floatarray) : unit =
  let n = f.n in
  if Float.Array.length d < n || Float.Array.length x < n then
    invalid_arg "Tridiag.solve_into: vector shorter than the system";
  if n > 0 then begin
    let get = Float.Array.get and set = Float.Array.set in
    let a = f.a and m = f.m and cm = f.cm in
    (* forward sweep: still a division by the pivot, so the bits match
       an elimination done afresh; reads d.(i) before writing x.(i), so
       x may be d *)
    set x 0 (get d 0 /. get m 0);
    for i = 1 to n - 1 do
      set x i ((get d i -. (get a i *. get x (i - 1))) /. get m i)
    done;
    for i = n - 2 downto 0 do
      set x i (get x i -. (get cm i *. get x (i + 1)))
    done
  end

let solve ~(a : floatarray) ~(b : floatarray) ~(c : floatarray)
    ~(d : floatarray) : floatarray =
  let n = Float.Array.length b in
  if
    Float.Array.length a <> n
    || Float.Array.length c <> n
    || Float.Array.length d <> n
  then invalid_arg "Tridiag.solve: length mismatch";
  let f = factor ~a ~b ~c in
  let x = Float.Array.make f.n 0.0 in
  solve_into f ~d ~x;
  x

(** Multiply the tridiagonal matrix by [x] (for tests / residuals). *)
let mul ~(a : floatarray) ~(b : floatarray) ~(c : floatarray)
    (x : floatarray) : floatarray =
  let n = Float.Array.length b in
  let get = Float.Array.get in
  Float.Array.init n (fun i ->
      (get b i *. get x i)
      +. (if i > 0 then get a i *. get x (i - 1) else 0.0)
      +. if i < n - 1 then get c i *. get x (i + 1) else 0.0)
