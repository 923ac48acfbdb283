(** Compressed-sparse-row matrices.

    Minimal CSR support for the solver stage: construction from triplets,
    matrix-vector product, and diagonal extraction (Jacobi preconditioning
    in {!Cg}). *)

type t = {
  n : int;  (** square dimension *)
  row_ptr : int array;  (** length n+1 *)
  col_idx : int array;
  values : floatarray;
}

let of_triplets ~(n : int) (triplets : (int * int * float) list) : t =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg "Sparse.of_triplets: index out of range")
    triplets;
  (* combine duplicates, sort by (row, col) *)
  let tbl = Hashtbl.create (List.length triplets) in
  List.iter
    (fun (r, c, v) ->
      let key = (r, c) in
      Hashtbl.replace tbl key
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
    triplets;
  let entries =
    Hashtbl.fold (fun (r, c) v acc -> (r, c, v) :: acc) tbl []
    |> List.sort compare
  in
  let nnz = List.length entries in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make nnz 0 in
  let values = Float.Array.make (max 1 nnz) 0.0 in
  List.iteri
    (fun k (r, c, v) ->
      row_ptr.(r + 1) <- row_ptr.(r + 1) + 1;
      col_idx.(k) <- c;
      Float.Array.set values k v)
    entries;
  for r = 0 to n - 1 do
    row_ptr.(r + 1) <- row_ptr.(r + 1) + row_ptr.(r)
  done;
  { n; row_ptr; col_idx; values }

let nnz (m : t) = m.row_ptr.(m.n)

(** y = A x *)
let mul (m : t) (x : floatarray) : floatarray =
  if Float.Array.length x <> m.n then invalid_arg "Sparse.mul: length mismatch";
  Float.Array.init m.n (fun r ->
      let acc = ref 0.0 in
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        acc :=
          !acc +. (Float.Array.get m.values k *. Float.Array.get x m.col_idx.(k))
      done;
      !acc)

let diagonal (m : t) : floatarray =
  Float.Array.init m.n (fun r ->
      let acc = ref 0.0 in
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        if m.col_idx.(k) = r then acc := !acc +. Float.Array.get m.values k
      done;
      !acc)
