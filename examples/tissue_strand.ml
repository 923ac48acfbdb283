(* 1-D tissue strand: the two-stage simulation end to end.

   A 100-cell cable of Drouhard-Roberge myocytes on Tissue.Monodomain.
   Each time step runs (1) the compute stage — the generated vector kernel
   producing Iion per cell — and (2) the implicit diffusion solve
   (tridiagonal Thomas algorithm).  An S1 stimulus at the left end
   launches a propagating action potential; the example reports
   activation times along the fibre and the conduction velocity between
   cells 20 and 80, and cross-checks the direct tridiagonal solve against
   conjugate gradients on the same diffusion operator.

   Run with: dune exec examples/tissue_strand.exe *)

let () =
  let n = 100 in
  let dt = 0.01 (* ms *) in
  let geom = Tissue.Geometry.cable ~n ~dx:0.01 (* cm *) in
  let config =
    { Tissue.Monodomain.default_config with probes = Some (20, 80) }
  in
  (* cross-check the diffusion operator once: direct vs CG on a smooth rhs *)
  let op =
    Tissue.Diffusion.assemble geom ~sigma:config.Tissue.Monodomain.sigma ~dt
  in
  let rhs = Float.Array.init n (fun i -> Float.sin (float_of_int i /. 7.0)) in
  let x_direct = Tissue.Diffusion.solve op rhs in
  let x_cg, stats = Solver.Cg.solve (Tissue.Diffusion.matrix op) rhs in
  let max_diff = ref 0.0 in
  for i = 0 to n - 1 do
    max_diff :=
      Float.max !max_diff
        (Float.abs (Float.Array.get x_direct i -. Float.Array.get x_cg i))
  done;
  Fmt.pr "solver cross-check: Thomas vs CG max diff %.2e (%d CG iters)@.@."
    !max_diff stats.Solver.Cg.iterations;

  let model =
    Models.Registry.model (Models.Registry.find_exn "DrouhardRoberge")
  in
  let gen = Codegen.Cache.generate (Codegen.Config.mlir ~width:8) model in
  let sim =
    Tissue.Monodomain.create ~config gen ~geom ~dt
      ~protocol:(Tissue.Protocol.s1 geom)
  in
  ignore (Tissue.Monodomain.run sim ~steps:6_000 (* 60 ms *) : float);
  let activation = Tissue.Monodomain.activation sim in
  Fmt.pr "activation times along the strand (ms):@.";
  List.iter
    (fun i ->
      let t = Tissue.Activation.first_time activation i in
      Fmt.pr "  cell %3d: %s@." i
        (if Float.is_nan t then "not activated" else Printf.sprintf "%.2f" t))
    [ 0; 20; 40; 60; 80; 99 ];
  match Tissue.Monodomain.conduction_velocity sim with
  | Some cv ->
      Fmt.pr "@.conduction velocity between cells 20 and 80: %.3f cm/ms (%.1f cm/s)@."
        cv (cv *. 1000.0)
  | None -> Fmt.pr "@.wave did not propagate between cells 20 and 80@."
