(* Solver-substrate tests: tridiagonal, CSR, CG, and the monodomain
   cable's implicit diffusion operator ({!Tissue.Diffusion}) and
   conduction-velocity measurement ({!Tissue.Activation}). *)

open Solver
module Diffusion = Tissue.Diffusion

let fa = Float.Array.of_list

(* The implicit diffusion operator of an [n]-node cable. *)
let cable_op ~n ~sigma ~dt =
  Diffusion.assemble (Tissue.Geometry.cable ~n ~dx:0.01) ~sigma ~dt

(* -- tridiagonal ---------------------------------------------------------- *)

let test_tridiag_known () =
  (* [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3] *)
  let a = fa [ 0.0; 1.0; 1.0 ] in
  let b = fa [ 2.0; 2.0; 2.0 ] in
  let c = fa [ 1.0; 1.0; 0.0 ] in
  let d = fa [ 4.0; 8.0; 8.0 ] in
  let x = Tridiag.solve ~a ~b ~c ~d in
  List.iteri
    (fun i want -> Helpers.check_close ~tol:1e-12 "x" want (Float.Array.get x i))
    [ 1.0; 2.0; 3.0 ]

let tridiag_residual =
  Helpers.qtest ~count:200 "tridiagonal solve has tiny residual"
    (QCheck.int_range 2 60)
    (fun n ->
      (* diagonally dominant random system *)
      let rnd i = Float.rem (Float.of_int ((i * 2654435761) land 0xFFFF)) 97.0 /. 97.0 in
      let a = Float.Array.init n (fun i -> if i = 0 then 0.0 else rnd i -. 0.5) in
      let c = Float.Array.init n (fun i -> if i = n - 1 then 0.0 else rnd (i + 7) -. 0.5) in
      let b =
        Float.Array.init n (fun i ->
            3.0 +. Float.abs (Float.Array.get a i) +. Float.abs (Float.Array.get c i))
      in
      let d = Float.Array.init n (fun i -> rnd (i + 13) *. 10.0 -. 5.0) in
      let x = Tridiag.solve ~a ~b ~c ~d in
      let ax = Tridiag.mul ~a ~b ~c x in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Float.abs (Float.Array.get ax i -. Float.Array.get d i) > 1e-9 then
          ok := false
      done;
      !ok)

(* Textbook Thomas: eliminate and sweep in one pass into fresh arrays.
   The reference the factored solve must match bit for bit. *)
let thomas_reference ~a ~b ~c ~d =
  let n = Float.Array.length b in
  let get = Float.Array.get and set = Float.Array.set in
  let cp = Float.Array.make n 0.0 and dp = Float.Array.make n 0.0 in
  set cp 0 (get c 0 /. get b 0);
  set dp 0 (get d 0 /. get b 0);
  for i = 1 to n - 1 do
    let m = get b i -. (get a i *. get cp (i - 1)) in
    set cp i (get c i /. m);
    set dp i ((get d i -. (get a i *. get dp (i - 1))) /. m)
  done;
  let x = Float.Array.make n 0.0 in
  set x (n - 1) (get dp (n - 1));
  for i = n - 2 downto 0 do
    set x i (get dp i -. (get cp i *. get x (i + 1)))
  done;
  x

let same_bits x y =
  let bits v i = Int64.bits_of_float (Float.Array.get v i) in
  Float.Array.length x = Float.Array.length y
  && List.for_all
       (fun i -> Int64.equal (bits x i) (bits y i))
       (List.init (Float.Array.length x) Fun.id)

let tridiag_factored_bitwise =
  Helpers.qtest ~count:300 "factored Thomas == textbook Thomas (bitwise)"
    QCheck.(pair (int_range 1 300) int)
    (fun (n, seed) ->
      (* diagonally dominant, coefficients over several magnitudes *)
      let st = Random.State.make [| seed |] in
      let r () =
        (Random.State.float st 2.0 -. 1.0)
        *. (10.0 ** float_of_int (Random.State.int st 7 - 3))
      in
      let a = Float.Array.init n (fun i -> if i = 0 then 0.0 else r ()) in
      let c = Float.Array.init n (fun i -> if i = n - 1 then 0.0 else r ()) in
      let b =
        Float.Array.init n (fun i ->
            let off = Float.abs (Float.Array.get a i) +. Float.abs (Float.Array.get c i) in
            let dom = off +. Float.abs (r ()) +. 1e-3 in
            if Random.State.bool st then dom else -.dom)
      in
      let d = Float.Array.init n (fun _ -> r ()) in
      let want = thomas_reference ~a ~b ~c ~d in
      let f = Tridiag.factor ~a ~b ~c in
      let fresh = Float.Array.make n Float.nan in
      Tridiag.solve_into f ~d ~x:fresh;
      let in_place = Float.Array.copy d in
      Tridiag.solve_into f ~d:in_place ~x:in_place;
      same_bits want fresh && same_bits want in_place
      && same_bits want (Tridiag.solve ~a ~b ~c ~d))

let test_tridiag_singular () =
  let z = fa [ 0.0; 0.0 ] in
  match Tridiag.solve ~a:z ~b:z ~c:z ~d:z with
  | exception Tridiag.Singular 0 -> ()
  | _ -> Alcotest.fail "singular system must raise"

(* -- CSR ------------------------------------------------------------------- *)

let test_csr_mul () =
  let m = Sparse.of_triplets ~n:3 [ (0, 0, 2.0); (0, 2, 1.0); (1, 1, 3.0); (2, 0, -1.0) ] in
  Alcotest.(check int) "nnz" 4 (Sparse.nnz m);
  let y = Sparse.mul m (fa [ 1.0; 2.0; 3.0 ]) in
  List.iteri
    (fun i want -> Helpers.fcheck "y" want (Float.Array.get y i))
    [ 5.0; 6.0; -1.0 ]

let test_csr_duplicates_combine () =
  let m = Sparse.of_triplets ~n:2 [ (0, 0, 1.0); (0, 0, 2.5) ] in
  Alcotest.(check int) "combined" 1 (Sparse.nnz m);
  let y = Sparse.mul m (fa [ 2.0; 0.0 ]) in
  Helpers.fcheck "value" 7.0 (Float.Array.get y 0)

let test_csr_diagonal () =
  let m = Sparse.of_triplets ~n:2 [ (0, 0, 4.0); (0, 1, 9.0); (1, 1, 5.0) ] in
  let d = Sparse.diagonal m in
  Helpers.fcheck "d0" 4.0 (Float.Array.get d 0);
  Helpers.fcheck "d1" 5.0 (Float.Array.get d 1)

(* -- CG --------------------------------------------------------------------- *)

let test_cg_matches_tridiag () =
  let n = 40 in
  let op = cable_op ~n ~sigma:0.001 ~dt:0.02 in
  let rhs = Float.Array.init n (fun i -> Float.cos (float_of_int i /. 5.0)) in
  let x_direct = Diffusion.solve op rhs in
  let x_cg, stats = Cg.solve ~tol:1e-12 (Diffusion.matrix op) rhs in
  Alcotest.(check bool) "converged" true (stats.Cg.residual < 1e-10);
  for i = 0 to n - 1 do
    Helpers.check_close ~tol:1e-8 "cg == direct" (Float.Array.get x_direct i)
      (Float.Array.get x_cg i)
  done

let test_cg_identity () =
  let m = Sparse.of_triplets ~n:3 [ (0, 0, 1.0); (1, 1, 1.0); (2, 2, 1.0) ] in
  let b = fa [ 3.0; -1.0; 0.5 ] in
  let x, stats = Cg.solve m b in
  Alcotest.(check bool) "few iterations" true (stats.Cg.iterations <= 2);
  for i = 0 to 2 do
    Helpers.check_close ~tol:1e-10 "identity solve" (Float.Array.get b i)
      (Float.Array.get x i)
  done

(* -- cable ------------------------------------------------------------------ *)

let test_cable_flat_stays_flat () =
  (* no stimulus, uniform Vm, zero Iion: diffusion must not move anything *)
  let n = 32 in
  let op = cable_op ~n ~sigma:0.001 ~dt:0.01 in
  let vm = ref (Float.Array.make n (-80.0)) in
  for _ = 1 to 100 do
    vm := Diffusion.solve op !vm
  done;
  for i = 0 to n - 1 do
    Helpers.check_close ~tol:1e-9 "flat" (-80.0) (Float.Array.get !vm i)
  done

let test_cable_conserves_charge () =
  (* with Neumann boundaries and no reaction, the mean of Vm is conserved *)
  let n = 32 in
  let op = cable_op ~n ~sigma:0.002 ~dt:0.01 in
  let vm = ref (Float.Array.init n (fun i -> if i < 8 then 0.0 else -80.0)) in
  let mean v =
    let s = ref 0.0 in
    Float.Array.iter (fun x -> s := !s +. x) v;
    !s /. float_of_int n
  in
  let m0 = mean !vm in
  for _ = 1 to 500 do
    vm := Diffusion.solve op !vm
  done;
  let vm = !vm in
  Helpers.check_close ~tol:1e-6 "mean conserved" m0 (mean vm);
  (* and the profile relaxes toward uniform *)
  let spread = Float.Array.get vm 0 -. Float.Array.get vm (n - 1) in
  Alcotest.(check bool) "diffusion smooths" true (Float.abs spread < 80.0)

let test_cable_stimulus_depolarizes () =
  (* explicit stimulus current on cells [0, 4), then the implicit solve *)
  let n = 16 and dt = 0.01 in
  let op = cable_op ~n ~sigma:0.001 ~dt in
  let vm = ref (Float.Array.make n (-80.0)) in
  for _ = 1 to 100 do
    let rhs =
      Float.Array.mapi
        (fun i v -> if i < 4 then v +. (dt *. 50.0) else v)
        !vm
    in
    vm := Diffusion.solve op rhs
  done;
  let vm = !vm in
  Alcotest.(check bool) "stimulated end depolarized" true
    (Float.Array.get vm 0 > -60.0);
  Alcotest.(check bool) "monotone decay along fibre" true
    (Float.Array.get vm 0 > Float.Array.get vm (n - 1))

let test_conduction_velocity_helper () =
  (* cell c steps from -80 to 0 mV between samples t = c and c + 1, so
     its interpolated -20 mV crossing is at c + 0.75 ms; cell 3 never
     steps up before the last sample *)
  let n = 4 in
  let act = Tissue.Activation.create ~n () in
  let t_prev = ref 0.0 in
  List.iter
    (fun t ->
      let vm =
        Float.Array.init n (fun c ->
            if t >= float_of_int (c + 1) then 0.0 else -80.0)
      in
      Tissue.Activation.observe act ~t_prev:!t_prev ~t_now:t ~vm;
      t_prev := t)
    [ 0.0; 1.0; 2.0; 3.0; 3.5 ];
  let cv =
    Tissue.Activation.conduction_velocity act (Tissue.Geometry.cable ~n ~dx:0.1)
  in
  (match cv ~from_cell:0 ~to_cell:2 with
  | Some v -> Helpers.check_close ~tol:1e-12 "cv" 0.1 v
  | None -> Alcotest.fail "cv expected");
  match cv ~from_cell:0 ~to_cell:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "unactivated cell must yield None"

(* -- three-way oracle: Thomas == CG == dense Gaussian elimination ---- *)

(* Dense Gaussian elimination with partial pivoting — the textbook
   oracle both production solvers are checked against. *)
let dense_ge_solve (m : float array array) (b : float array) : float array =
  let n = Array.length b in
  let a = Array.map Array.copy m and x = Array.copy b in
  for k = 0 to n - 1 do
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
    done;
    let tmp = a.(k) in
    a.(k) <- a.(!piv);
    a.(!piv) <- tmp;
    let tb = x.(k) in
    x.(k) <- x.(!piv);
    x.(!piv) <- tb;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done;
      x.(i) <- x.(i) -. (f *. x.(k))
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. a.(i).(i)
  done;
  x

let solver_oracle =
  (* The SPD family the diffusion step actually solves: I + λ·L with L
     the Neumann 1-D Laplacian and λ = dt·σ/dx² > 0.  Tolerances: the
     dense oracle and Thomas are both direct — they agree to ~1e-12
     relative (cond(I + λL) ≤ 1 + 4λ ≤ 21 here); CG iterates to a 1e-12
     relative residual, so 1e-8 absolute on these O(1) solutions leaves
     two orders of headroom. *)
  Helpers.qtest ~count:150 "tridiag == cg == dense GE on SPD Laplacian"
    QCheck.(
      triple (int_range 2 40)
        (float_range 0.01 5.0)
        (int_range 0 10_000))
    (fun (n, lambda, seed) ->
      let sub =
        Float.Array.init n (fun i -> if i = 0 then 0.0 else -.lambda)
      and sup =
        Float.Array.init n (fun i -> if i = n - 1 then 0.0 else -.lambda)
      and diag =
        Float.Array.init n (fun i ->
            let deg = (if i > 0 then 1.0 else 0.0) +. if i < n - 1 then 1.0 else 0.0 in
            1.0 +. (lambda *. deg))
      in
      let rhs =
        Float.Array.init n (fun i ->
            Float.sin (float_of_int ((seed + (i * 37)) mod 1000) /. 31.0))
      in
      let x_thomas = Tridiag.solve ~a:sub ~b:diag ~c:sup ~d:rhs in
      let triplets = ref [] in
      for i = 0 to n - 1 do
        triplets := (i, i, Float.Array.get diag i) :: !triplets;
        if i > 0 then triplets := (i, i - 1, -.lambda) :: !triplets;
        if i < n - 1 then triplets := (i, i + 1, -.lambda) :: !triplets
      done;
      let x_cg, _ =
        Cg.solve ~tol:1e-12 ~max_iters:10_000
          (Sparse.of_triplets ~n !triplets)
          rhs
      in
      let dense =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then Float.Array.get diag i
                else if abs (i - j) = 1 then -.lambda
                else 0.0))
      in
      let x_ge =
        dense_ge_solve dense (Array.init n (Float.Array.get rhs))
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        if not (Helpers.close ~tol:1e-10 (Float.Array.get x_thomas i) x_ge.(i))
        then ok := false;
        if not (Helpers.close ~tol:1e-8 (Float.Array.get x_cg i) x_ge.(i))
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "tridiag known system" `Quick test_tridiag_known;
    solver_oracle;
    tridiag_residual;
    tridiag_factored_bitwise;
    Alcotest.test_case "tridiag singular" `Quick test_tridiag_singular;
    Alcotest.test_case "csr mul" `Quick test_csr_mul;
    Alcotest.test_case "csr duplicate triplets" `Quick test_csr_duplicates_combine;
    Alcotest.test_case "csr diagonal" `Quick test_csr_diagonal;
    Alcotest.test_case "cg == direct solve" `Quick test_cg_matches_tridiag;
    Alcotest.test_case "cg identity" `Quick test_cg_identity;
    Alcotest.test_case "cable: flat stays flat" `Quick test_cable_flat_stays_flat;
    Alcotest.test_case "cable: charge conserved" `Quick
      test_cable_conserves_charge;
    Alcotest.test_case "cable: stimulus depolarizes" `Quick
      test_cable_stimulus_depolarizes;
    Alcotest.test_case "conduction velocity helper" `Quick
      test_conduction_velocity_helper;
  ]
