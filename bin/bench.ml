(* openCARP `bench` analogue.

   Runs one or more ionic models for a number of time steps, comparing the
   baseline scalar kernel against the limpetMLIR vector kernel.  Reports
   both the real wall-clock time of the execution engine on this host and
   the machine-model projection onto the paper's 2x18-core Cascade Lake
   platform (see DESIGN.md for the substitution rationale). *)

open Cmdliner

let run models cells steps dt width threads validate =
  let entries =
    match models with
    | [] -> Models.Registry.all
    | names ->
        List.map
          (fun n ->
            match Models.Registry.find n with
            | Some e -> e
            | None ->
                Fmt.epr "%a@."
                  (Easyml.Diag.pp ~file:n)
                  (Easyml.Diag.makef ~sev:Easyml.Diag.Error
                     ~code:"unknown-model" "unknown model %s (not in registry)" n);
                exit 1)
          names
  in
  Fmt.pr "%-22s %12s %13s %8s %14s@." "model" "baseline(s)" "limpetMLIR(s)"
    "speedup" "paper-model";
  let stim = Sim.Stim.default in
  let speedups = ref [] in
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let m = Models.Registry.model e in
      let gb = Codegen.Cache.generate Codegen.Config.baseline m in
      let gv = Codegen.Cache.generate (Codegen.Config.mlir ~width) m in
      let db = Sim.Driver.create gb ~ncells:cells ~dt in
      let dv = Sim.Driver.create gv ~ncells:cells ~dt in
      let tb = Sim.Driver.run ~nthreads:threads ~stim db ~steps in
      let tv = Sim.Driver.run ~nthreads:threads ~stim dv ~steps in
      (if validate then
         let sb = Sim.Driver.snapshot db 0 and sv = Sim.Driver.snapshot dv 0 in
         List.iter2
           (fun (n, a) (_, b) ->
             if
               (not (Float.is_finite a))
               || Float.abs (a -. b) > 1e-9 *. (Float.abs a +. 1.0)
             then
               Fmt.epr "  %s: scalar/vector mismatch on %s: %g vs %g@." e.name n
                 a b)
           sb sv);
      let proj =
        (Machine.Perfmodel.run_kernel gv ~ncells:8192 ~steps:100_000
           ~nthreads:threads)
          .Machine.Perfmodel.seconds
      in
      speedups := (tb /. tv) :: !speedups;
      Fmt.pr "%-22s %12.3f %13.3f %7.2fx %13.1fs@." e.name tb tv (tb /. tv) proj)
    entries;
  if List.length !speedups > 1 then
    Fmt.pr "@.geomean wall-clock speedup: %.2fx@." (Perf.Stats.geomean !speedups)

let main =
  let models =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Models to run (default: all 43).")
  in
  let cells =
    Flags.positive "cells"
      Arg.(value & opt int 256 & info [ "cells" ] ~docv:"N"
             ~doc:"Cells per model (openCARP default is 8192; the engine is \
                   an interpreter, so the default here is smaller).")
  in
  let steps =
    Arg.(value & opt int 500 & info [ "steps" ] ~docv:"N"
           ~doc:"Time steps (openCARP default is 100000).")
  in
  let dt =
    Flags.positive_float "dt"
      Arg.(value & opt float 0.01 & info [ "dt" ] ~docv:"MS")
  in
  let width =
    Flags.width Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"W")
  in
  let threads =
    Flags.positive "threads"
      Arg.(value & opt int 1 & info [ "threads" ] ~docv:"T")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Check scalar/vector state agreement after the run.")
  in
  let doc = "openCARP-style benchmark driver for the limpetMLIR reproduction" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ models $ cells $ steps $ dt $ width $ threads $ validate)

let () = exit (Cmd.eval main)
