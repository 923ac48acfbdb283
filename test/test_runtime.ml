(* Runtime tests: data layouts, lookup tables, parallel-for, stimulus. *)

open Runtime

(* -- layouts ------------------------------------------------------------ *)

let layouts = [ Layout.AoS; Layout.SoA; Layout.AoSoA 4; Layout.AoSoA 8 ]

let layout_bijective =
  Helpers.qtest ~count:300 "layout index is a bijection into the buffer"
    QCheck.(
      quad (QCheck.int_range 1 40) (QCheck.int_range 1 100)
        (QCheck.int_range 0 3) QCheck.unit)
    (fun (nvars, ncells, li, ()) ->
      let layout = List.nth layouts li in
      let size = Layout.size layout ~nvars ~ncells in
      let seen = Hashtbl.create (nvars * ncells) in
      let ok = ref true in
      for cell = 0 to ncells - 1 do
        for var = 0 to nvars - 1 do
          let i = Layout.index layout ~nvars ~ncells ~cell ~var in
          if i < 0 || i >= size || Hashtbl.mem seen i then ok := false
          else Hashtbl.add seen i ()
        done
      done;
      !ok)

let test_layout_formulas () =
  Alcotest.(check int) "aos" (5 * 3 + 1)
    (Layout.index Layout.AoS ~nvars:3 ~ncells:10 ~cell:5 ~var:1);
  Alcotest.(check int) "soa" (1 * 10 + 5)
    (Layout.index Layout.SoA ~nvars:3 ~ncells:10 ~cell:5 ~var:1);
  (* aosoa4: cell 5 -> block 1, lane 1 *)
  Alcotest.(check int) "aosoa" ((1 * 3 * 4) + (1 * 4) + 1)
    (Layout.index (Layout.AoSoA 4) ~nvars:3 ~ncells:12 ~cell:5 ~var:1)

let test_layout_padding () =
  Alcotest.(check int) "aosoa pads to full blocks" 16
    (Layout.padded_cells (Layout.AoSoA 8) ~ncells:9);
  Alcotest.(check int) "aos does not pad" 9
    (Layout.padded_cells Layout.AoS ~ncells:9)

let test_layout_contiguity () =
  Alcotest.(check bool) "aosoa8 contiguous at width 8" true
    (Layout.contiguous (Layout.AoSoA 8) ~w:8);
  Alcotest.(check bool) "aos needs gathers" false
    (Layout.contiguous Layout.AoS ~w:8);
  Alcotest.(check bool) "soa contiguous" true (Layout.contiguous Layout.SoA ~w:4)

let test_layout_names () =
  List.iter
    (fun l ->
      match Layout.of_string (Layout.name l) with
      | Some l' -> Alcotest.(check bool) "name round-trip" true (l = l')
      | None -> Alcotest.fail "layout name must parse")
    layouts;
  Alcotest.(check bool) "garbage rejected" true (Layout.of_string "blah" = None)

(* -- lookup tables -------------------------------------------------------- *)

let test_lut_exact_on_grid () =
  let t = Lut.build ~lo:(-2.0) ~hi:2.0 ~step:0.5 [| Float.exp; Float.sin |] in
  Alcotest.(check int) "rows" 9 t.Lut.rows;
  let row = Float.Array.make 2 0.0 in
  Lut.interp_row t 1.0 ~row;
  Helpers.check_close ~tol:1e-12 "exact at grid point (exp)" (Float.exp 1.0)
    (Float.Array.get row 0);
  Helpers.check_close ~tol:1e-12 "exact at grid point (sin)" (Float.sin 1.0)
    (Float.Array.get row 1)

let lut_interp_error_bound =
  (* linear interpolation error of exp on [-2, 2] with step h is bounded by
     h^2/8 * max|f''| = h^2/8 * e^2 *)
  Helpers.qtest ~count:300 "interpolation error within theoretical bound"
    (QCheck.float_range (-2.0) 2.0)
    (fun x ->
      let step = 0.01 in
      let t = Lut.build ~lo:(-2.0) ~hi:2.0 ~step [| Float.exp |] in
      let row = Float.Array.make 1 0.0 in
      Lut.interp_row t x ~row;
      let bound = step *. step /. 8.0 *. Float.exp 2.0 +. 1e-12 in
      Float.abs (Float.Array.get row 0 -. Float.exp x) <= bound)

let test_lut_clamps () =
  let t = Lut.build ~lo:0.0 ~hi:1.0 ~step:0.25 [| Fun.id |] in
  let row = Float.Array.make 1 0.0 in
  Lut.interp_row t (-5.0) ~row;
  Helpers.fcheck "clamped low" 0.0 (Float.Array.get row 0);
  Lut.interp_row t 42.0 ~row;
  Helpers.fcheck "clamped high" 1.0 (Float.Array.get row 0)

let vec_interp_matches_scalar =
  Helpers.qtest ~count:200 "vector interpolation == scalar per lane"
    QCheck.(
      quad (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0)
        (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (a, b, c, d) ->
      let t =
        Lut.build ~lo:(-2.0) ~hi:2.0 ~step:0.1 [| Float.exp; Float.cos; Float.tanh |]
      in
      let xs = Float.Array.of_list [ a; b; c; d ] in
      let vrow = Float.Array.make (3 * 4) 0.0 in
      Lut.interp_row_vec t xs ~row:vrow;
      let srow = Float.Array.make 3 0.0 in
      let ok = ref true in
      Float.Array.iteri
        (fun lane x ->
          Lut.interp_row t x ~row:srow;
          for col = 0 to 2 do
            if
              not
                (Helpers.same_float
                   (Float.Array.get vrow ((col * 4) + lane))
                   (Float.Array.get srow col))
            then ok := false
          done)
        xs;
      !ok)

(* -- cubic spline interpolation -------------------------------------------- *)

let test_cubic_more_accurate () =
  let t = Lut.build ~lo:(-2.0) ~hi:2.0 ~step:0.1 [| Float.exp |] in
  let row = Float.Array.make 1 0.0 in
  let worst f =
    let w = ref 0.0 in
    for i = 0 to 1000 do
      let x = -1.85 +. (3.7 *. float_of_int i /. 1000.0) in
      f t x ~row;
      w := Float.max !w (Float.abs (Float.Array.get row 0 -. Float.exp x))
    done;
    !w
  in
  let lin = worst Lut.interp_row and cub = worst Lut.interp_row_cubic in
  Alcotest.(check bool)
    (Printf.sprintf "cubic ≫ linear accuracy (%.2e vs %.2e)" cub lin)
    true
    (cub < lin /. 50.0)

let test_cubic_exact_on_grid () =
  let t = Lut.build ~lo:0.0 ~hi:4.0 ~step:0.5 [| Float.sin |] in
  let row = Float.Array.make 1 0.0 in
  Lut.interp_row_cubic t 2.0 ~row;
  Helpers.check_close ~tol:1e-12 "interpolates grid points exactly"
    (Float.sin 2.0) (Float.Array.get row 0)

let test_cubic_clamps () =
  let t = Lut.build ~lo:0.0 ~hi:1.0 ~step:0.1 [| Fun.id |] in
  let row = Float.Array.make 1 0.0 in
  Lut.interp_row_cubic t 99.0 ~row;
  Alcotest.(check bool) "finite when clamped high" true
    (Float.is_finite (Float.Array.get row 0));
  Lut.interp_row_cubic t (-99.0) ~row;
  Alcotest.(check bool) "finite when clamped low" true
    (Float.is_finite (Float.Array.get row 0))

let cubic_vec_matches_scalar =
  Helpers.qtest ~count:200 "cubic vector interpolation == scalar per lane"
    QCheck.(pair (QCheck.float_range (-2.5) 2.5) (QCheck.float_range (-2.5) 2.5))
    (fun (a, b) ->
      let t = Lut.build ~lo:(-2.0) ~hi:2.0 ~step:0.1 [| Float.exp; Float.sin |] in
      let xs = Float.Array.of_list [ a; b ] in
      let vrow = Float.Array.make 4 0.0 in
      Lut.interp_row_cubic_vec t xs ~row:vrow;
      let srow = Float.Array.make 2 0.0 in
      let ok = ref true in
      Float.Array.iteri
        (fun lane x ->
          Lut.interp_row_cubic t x ~row:srow;
          for col = 0 to 1 do
            if
              not
                (Helpers.same_float
                   (Float.Array.get vrow ((col * 2) + lane))
                   (Float.Array.get srow col))
            then ok := false
          done)
        xs;
      !ok)

(* -- svml ------------------------------------------------------------------- *)

let svml_exp_accuracy =
  Helpers.qtest ~count:400 "svml exp within advertised error"
    (QCheck.float_range (-50.0) 50.0)
    (fun x ->
      let got = Svml.exp_scalar x and want = Float.exp x in
      Float.abs (got -. want) <= Svml.advertised_rel_error *. Float.abs want)

let svml_log_accuracy =
  Helpers.qtest ~count:400 "svml log within advertised error"
    (QCheck.float_range (-9.0) 9.0)
    (fun e ->
      let x = Float.exp e in
      let got = Svml.log_scalar x and want = Float.log x in
      Float.abs (got -. want)
      <= Svml.advertised_rel_error *. Float.max 1.0 (Float.abs want))

let svml_tanh_accuracy =
  Helpers.qtest ~count:400 "svml tanh within 1e-10 absolute"
    (QCheck.float_range (-30.0) 30.0)
    (fun x -> Float.abs (Svml.tanh_scalar x -. Float.tanh x) <= 1e-10)

let test_svml_special_values () =
  Alcotest.(check bool) "exp(-inf) = 0" true (Svml.exp_scalar (-1000.0) = 0.0);
  Alcotest.(check bool) "exp overflow = inf" true
    (Svml.exp_scalar 800.0 = Float.infinity);
  Alcotest.(check bool) "exp nan" true (Float.is_nan (Svml.exp_scalar Float.nan));
  Alcotest.(check bool) "log 0 = -inf" true
    (Svml.log_scalar 0.0 = Float.neg_infinity);
  Alcotest.(check bool) "log of negative is nan" true
    (Float.is_nan (Svml.log_scalar (-1.0)));
  Helpers.check_close ~tol:1e-11 "pow" (Float.pow 2.5 3.5) (Svml.pow_scalar 2.5 3.5);
  Helpers.fcheck "pow of negative with integer exponent" (-8.0)
    (Svml.pow_scalar (-2.0) 3.0);
  (* subnormal input to log *)
  Alcotest.(check bool) "log subnormal finite" true
    (Float.is_finite (Svml.log_scalar 1e-310))

let test_svml_vectors () =
  let src = Float.Array.of_list [ -2.0; 0.0; 1.5; 30.0 ] in
  let dst = Float.Array.make 4 0.0 in
  Svml.exp_v ~src ~dst;
  Float.Array.iteri
    (fun i x ->
      Helpers.check_close ~tol:1e-11 "exp_v lane" (Float.exp x)
        (Float.Array.get dst i))
    src

(* -- parallel ------------------------------------------------------------- *)

let chunks_partition =
  Helpers.qtest ~count:200 "static chunks partition the range"
    QCheck.(triple (QCheck.int_range 1 16) (QCheck.int_range 0 50) (QCheck.int_range 0 200))
    (fun (nthreads, lo, len) ->
      let hi = lo + len in
      let chunks = Parallel.chunks ~nthreads ~lo ~hi in
      List.length chunks = nthreads
      && List.for_all (fun (a, b) -> a <= b) chunks
      && (let covered =
            List.concat_map (fun (a, b) -> List.init (b - a) (fun i -> a + i)) chunks
          in
          List.sort_uniq compare covered = List.init len (fun i -> lo + i))
      &&
      (* balanced to within one iteration *)
      let sizes = List.map (fun (a, b) -> b - a) chunks in
      let mn, mx = (List.fold_left min max_int sizes, List.fold_left max 0 sizes) in
      mx - mn <= 1)

let test_parallel_for () =
  let n = 1000 in
  let out = Array.make n 0 in
  let chunk_of = Array.make n (-1) in
  Parallel.parallel_for_chunks ~nthreads:4 ~lo:0 ~hi:n (fun k lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- i * i;
        chunk_of.(i) <- k
      done);
  Alcotest.(check bool) "all cells written" true
    (Array.for_all Fun.id (Array.init n (fun i -> out.(i) = i * i)));
  let got_chunk k (lo, hi) = Array.for_all (( = ) k) (Array.sub chunk_of lo (hi - lo)) in
  Alcotest.(check bool) "body k ran the schedule's k-th chunk" true
    (List.for_all Fun.id (List.mapi got_chunk (Parallel.chunks ~nthreads:4 ~lo:0 ~hi:n)))

(* -- stimulus -------------------------------------------------------------- *)

let test_stim () =
  let s = Sim.Stim.make ~amplitude:10.0 ~start:1.0 ~duration:2.0 ~period:100.0 () in
  Helpers.fcheck "before" 0.0 (Sim.Stim.at s 0.5);
  Helpers.fcheck "during" 10.0 (Sim.Stim.at s 1.5);
  Helpers.fcheck "after" 0.0 (Sim.Stim.at s 3.5);
  Helpers.fcheck "second beat" 10.0 (Sim.Stim.at s 101.5);
  Helpers.fcheck "between beats" 0.0 (Sim.Stim.at s 150.0);
  Helpers.fcheck "none" 0.0 (Sim.Stim.at Sim.Stim.none 1.5)

let suite =
  [
    layout_bijective;
    Alcotest.test_case "layout formulas" `Quick test_layout_formulas;
    Alcotest.test_case "layout padding" `Quick test_layout_padding;
    Alcotest.test_case "layout contiguity" `Quick test_layout_contiguity;
    Alcotest.test_case "layout names" `Quick test_layout_names;
    Alcotest.test_case "lut exact on grid" `Quick test_lut_exact_on_grid;
    lut_interp_error_bound;
    Alcotest.test_case "lut clamps out-of-range" `Quick test_lut_clamps;
    vec_interp_matches_scalar;
    Alcotest.test_case "cubic beats linear accuracy" `Quick
      test_cubic_more_accurate;
    Alcotest.test_case "cubic exact on grid" `Quick test_cubic_exact_on_grid;
    Alcotest.test_case "cubic clamps" `Quick test_cubic_clamps;
    cubic_vec_matches_scalar;
    svml_exp_accuracy;
    svml_log_accuracy;
    svml_tanh_accuracy;
    Alcotest.test_case "svml special values" `Quick test_svml_special_values;
    Alcotest.test_case "svml vectors" `Quick test_svml_vectors;
    chunks_partition;
    Alcotest.test_case "parallel_for" `Quick test_parallel_for;
    Alcotest.test_case "stimulus protocol" `Quick test_stim;
  ]
