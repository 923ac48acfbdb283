(* Tile-batched engine tests: the bitwise differential against the
   reference interpreter on the full model catalogue (batched across tile
   sizes, and with spline lookup tables), Domain-parallel stepping on every model,
   qcheck properties for the slot coalescer (standalone and end-to-end on
   random straight-line loops), tile-partition race checking, driver tile
   resolution, and out-of-range accesses raising on every engine. *)

open Exec
module C = Codegen.Config
module B = Ir.Builder
module R = Sim.Racecheck
module RA = Regalloc

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()

(* The three code-generation points that matter for engine coverage:
   scalar AoS (baseline), vector AoSoA (contiguous vector loads/stores),
   vector AoS (the gather/scatter path). *)
let configs =
  [ ("scalar", C.baseline); ("aosoa", C.mlir ~width:4); ("aos-vec", C.autovec ~width:4) ]

(* 13 cells: pads to 16 under width 4, so tile 3 does not divide the
   4 blocks, tile 4 divides exactly, 1024 exceeds the whole range. *)
let ncells = 13
let tiles = [ 1; 3; 4; 1024 ]

let gen_of name cfg =
  let e = Models.Registry.find_exn name in
  Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name (fun () ->
      Models.Registry.model e)

let check_snapshots ~ctx a b =
  List.iter2
    (fun (n, x) (_, y) ->
      if not (Float.is_finite x) then Alcotest.failf "%s: %s not finite" ctx n;
      if not (Helpers.same_float x y) then
        Alcotest.failf "%s: mismatch on %s: %.17g vs %.17g" ctx n x y)
    a b

(* The interpreter's trajectories, keyed on model and config: the two
   cases below share them, so each runs once. *)
let references = Hashtbl.create 129

(* The engines under test == the reference interpreter, bitwise, on all
   43 models, 100 steps, in every config.  Kernels come through the shared
   cache, so each model x config compiles once for every engine. *)
let test_all_models_match_interp ?(configs = configs) engines () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g =
            Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
                Models.Registry.model e)
          in
          let run d =
            for _ = 1 to 100 do
              Sim.Driver.step ~stim d
            done;
            List.map (fun cell -> (cell, Sim.Driver.snapshot d cell)) [ 0; 6; 12 ]
          in
          let reference =
            match Hashtbl.find_opt references (e.name, cname) with
            | Some r -> r
            | None ->
                let r =
                  run
                    (Sim.Driver.create ~engine:Sim.Driver.Reference g ~ncells
                       ~dt:0.01)
                in
                Hashtbl.add references (e.name, cname) r;
                r
          in
          List.iter
            (fun (what, create) ->
              let ctx = Printf.sprintf "%s/%s %s/interp" e.name cname what in
              List.iter2
                (fun (cell, a) (_, b) ->
                  check_snapshots ~ctx:(Printf.sprintf "%s cell %d" ctx cell) a b)
                reference
                (run (create g)))
            engines)
        configs)
    Models.Registry.all

(* Batched at every tested tile size. *)
let batched_engines =
  List.map
    (fun tile ->
      ( Printf.sprintf "batched tile=%d" tile,
        fun g -> Sim.Driver.create ~engine:Sim.Driver.Batched ~tile g ~ncells ~dt:0.01 ))
    tiles

(* Batched at its auto tile on Catmull-Rom tables: the cubic macro-op
   on every model that has a table (its own code path, in the vector
   AoSoA and the scalar config). *)
let spline_configs =
  List.map
    (fun (name, cfg) -> (name ^ "-spline", { cfg with C.lut_spline = true }))
    [ ("scalar", C.baseline); ("aosoa", C.mlir ~width:4) ]

let batched_engine =
  [ ("batched", fun g -> Sim.Driver.create ~engine:Sim.Driver.Batched g ~ncells ~dt:0.01) ]

(* Domain-parallel stepping must be bitwise-identical to sequential: the
   chunking only partitions whole tiles, it never changes per-cell math.
   One-block tiles, so the 16 cells split into four chunks. *)
let test_all_models_parallel_identical () =
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let g = gen_of e.name (C.mlir ~width:4) in
      let mk () =
        Sim.Driver.create ~engine:Sim.Driver.Batched ~tile:1 g ~ncells:16
          ~dt:0.01
      in
      let dp = mk () and ds = mk () in
      for _ = 1 to 50 do
        Sim.Driver.step ~nthreads:4 ~stim dp;
        Sim.Driver.step ~stim ds
      done;
      for cell = 0 to 15 do
        check_snapshots
          ~ctx:(Printf.sprintf "%s parallel cell %d" e.name cell)
          (Sim.Driver.snapshot dp cell)
          (Sim.Driver.snapshot ds cell)
      done)
    Models.Registry.all

(* The cubic-spline LUT path exercises the Catmull-Rom macro-op arm. *)
let test_cubic_lut_macro_op_bitwise () =
  List.iter
    (fun name ->
      let cfg = { (C.mlir ~width:4) with C.lut_spline = true } in
      let g = gen_of name cfg in
      let run engine =
        let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
        for _ = 1 to 50 do
          Sim.Driver.step ~stim d
        done;
        Sim.Driver.snapshot d 6
      in
      check_snapshots
        ~ctx:(name ^ " cubic batched/interp")
        (run Sim.Driver.Batched) (run Sim.Driver.Reference);
      (* NaN row: a NaN Vm in cell 6 reaches the table lookup; its lane
         goes NaN, its block's other lanes stay finite, and batched
         agrees with the interpreter bit for bit *)
      let nan_stage engine =
        let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
        Sim.Driver.set_ext d "Vm" 6 Float.nan;
        Sim.Driver.compute_stage d;
        List.init ncells (Sim.Driver.snapshot d)
      in
      List.iteri
        (fun cell (a, b) ->
          let ctx = Printf.sprintf "%s NaN lookup, cell %d" name cell in
          if cell = 6 then begin
            if not (List.exists (fun (_, x) -> Float.is_nan x) a) then
              Alcotest.failf "%s: no NaN" ctx;
            List.iter2
              (fun (n, x) (_, y) ->
                if not (Helpers.same_float x y) then
                  Alcotest.failf "%s: mismatch on %s: %.17g vs %.17g" ctx n x y)
              a b
          end
          else check_snapshots ~ctx a b)
        (List.combine (nan_stage Sim.Driver.Batched)
           (nan_stage Sim.Driver.Reference)))
    [ "MitchellSchaeffer"; "LuoRudy91"; "TenTusscher" ]

(* Domain-parallel batched stepping: tile-aligned chunks are proved
   race-free and the run is bitwise identical to sequential. *)
let test_parallel_tiles_identical () =
  List.iter
    (fun name ->
      let g = gen_of name (C.mlir ~width:4) in
      let mk () =
        Sim.Driver.create ~engine:Sim.Driver.Batched ~tile:2 g ~ncells:17
          ~dt:0.01
      in
      (match R.check_tiles g ~ncells:17 ~nthreads:4 ~tile:2 with
      | Ok _ -> ()
      | Error cs -> Alcotest.failf "%s: %s" name (R.errors_to_string cs));
      let ds = mk () and dp = mk () in
      for _ = 1 to 50 do
        Sim.Driver.step ~stim ds;
        Sim.Driver.step ~nthreads:4 ~stim dp
      done;
      for cell = 0 to 16 do
        check_snapshots
          ~ctx:(Printf.sprintf "%s parallel tile cell %d" name cell)
          (Sim.Driver.snapshot ds cell)
          (Sim.Driver.snapshot dp cell)
      done)
    [ "MitchellSchaeffer"; "LuoRudy91" ]

(* Tile-aligned partitions pass the race checker for every shape; a
   partition that splits a vector block is still rejected. *)
let test_tile_partitions_checked () =
  let g = gen_of "LuoRudy91" (C.mlir ~width:4) in
  List.iter
    (fun (tile, nthreads) ->
      match R.check_tiles g ~ncells:33 ~nthreads ~tile with
      | Ok _ -> ()
      | Error cs ->
          Alcotest.failf "tile=%d nthreads=%d: %s" tile nthreads
            (R.errors_to_string cs))
    [ (1, 2); (2, 4); (5, 3); (64, 2) ];
  match R.check_partition g ~ncells_pad:16 [ (0, 6); (6, 16) ] with
  | Ok _ -> Alcotest.fail "block-splitting partition was not rejected"
  | Error cs ->
      Alcotest.(check bool) "conflicts reported" true (List.length cs > 0)

let test_driver_tile_resolution () =
  let g = gen_of "MitchellSchaeffer" (C.mlir ~width:4) in
  let d7 =
    Sim.Driver.create ~engine:Sim.Driver.Batched ~tile:7 g ~ncells:8 ~dt:0.01
  in
  Alcotest.(check int) "explicit tile wins" 7 d7.Sim.Driver.tile;
  let da = Sim.Driver.create ~engine:Sim.Driver.Batched g ~ncells:8 ~dt:0.01 in
  Alcotest.(check bool)
    "auto tile within the L1 sizing clamp" true
    (da.Sim.Driver.tile >= 4 && da.Sim.Driver.tile <= 64);
  let dr = Sim.Driver.create ~engine:Sim.Driver.Reference g ~ncells:8 ~dt:0.01 in
  Alcotest.(check int) "non-batched drivers use unit tiles" 1 dr.Sim.Driver.tile

(* -- slot coalescer: standalone property -------------------------------- *)

(* Random straight-line programs: instruction t defines vreg t (random
   class); uses draw from earlier definitions. *)
let prog_gen : RA.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 40 in
  let* classes = flatten_l (List.init n (fun _ -> int_range 0 2)) in
  let cls = Array.of_list classes in
  let vreg j = { RA.vclass = cls.(j); vid = j } in
  let* uses =
    flatten_l
      (List.init n (fun t ->
           if t = 0 then return []
           else
             let* k = int_range 0 3 in
             let* js = flatten_l (List.init k (fun _ -> int_range 0 (t - 1))) in
             return (List.map vreg js)))
  in
  return
    {
      RA.uses = Array.of_list uses;
      defs = Array.init n (fun t -> [ vreg t ]);
    }

let print_prog (p : RA.program) : string =
  String.concat "; "
    (Array.to_list
       (Array.mapi
          (fun t us ->
            Printf.sprintf "%d: def %d.%d use [%s]" t
              (List.hd p.RA.defs.(t)).RA.vclass t
              (String.concat ","
                 (List.map
                    (fun (v : RA.vreg) ->
                      Printf.sprintf "%d.%d" v.RA.vclass v.RA.vid)
                    us)))
          p.RA.uses))

let coalescer_sound =
  Helpers.qtest ~count:500 "linear-scan allocation verifies on random programs"
    (QCheck.make ~print:print_prog prog_gen)
    (fun p ->
      let a = RA.allocate p in
      (match RA.verify p a with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "verify: %s" msg);
      (* rows never exceed the virtual-register count, per class *)
      List.for_all
        (fun (cls, rows) ->
          let virtuals =
            Array.fold_left
              (fun acc ds ->
                acc
                + List.length (List.filter (fun v -> v.RA.vclass = cls) ds))
              0 p.RA.defs
          in
          rows <= max 1 virtuals)
        a.RA.counts)

(* -- slot coalescing preserves execution on random loop bodies ---------- *)

(* Lower a random expression into a parallel loop body (two loads, the
   expression, one store) and require the batched engine — imports,
   pairing, coalesced rows and all — to match the reference interpreter
   bitwise, for several tile sizes. *)
let lower_loop ~(w : int) (e : Easyml.Ast.expr) : Ir.Func.modl =
  let m = Ir.Func.create_module "bat_loop" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
       ~results:[]
       (fun b args ->
         let in1 = List.nth args 0
         and in2 = List.nth args 1
         and out = List.nth args 2
         and n = List.nth args 3 in
         ignore
           (B.for_ b ~parallel:true ~lb:(B.consti b 0) ~ub:n
              ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x, y =
                  if w = 1 then
                    ( B.load b ~mem:in1 ~idx:iv,
                      B.load b ~mem:in2 ~idx:iv )
                  else
                    ( B.vec_load b ~width:w ~mem:in1 ~idx:iv,
                      B.vec_load b ~width:w ~mem:in2 ~idx:iv )
                in
                let env =
                  Codegen.Lower.make_env ~b ~width:w [ ("x", x); ("y", y) ]
                in
                let r = Codegen.Lower.lower_num env e in
                if w = 1 then B.store b r ~mem:out ~idx:iv
                else B.vec_store b ~vec:r ~mem:out ~idx:iv;
                []));
         B.ret b []));
  m

let run_loop ~(engine : [ `Batched of int | `Interp ]) (m : Ir.Func.modl)
    ~(n : int) (in1 : floatarray) (in2 : floatarray) : floatarray =
  let out = Float.Array.make n 0.0 in
  let args = [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |] in
  (match engine with
  | `Batched tile -> ignore (Batched.run ~tile m "f" args)
  | `Interp -> ignore (Interp.run m "f" args));
  out

let batched_matches_interp_on_loops ~(w : int) name =
  Helpers.qtest ~count:120 name
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
      let m = lower_loop ~w e in
      Ir.Verifier.verify_module_exn m;
      (* the loop must actually tile (auto tiles are >= 4 blocks) *)
      if Batched.plan_tile m ~name:"f" < 4 then
        QCheck.Test.fail_reportf "loop did not tile";
      let n = 12 in
      let in1 = Float.Array.init n (fun i -> Float.sin (float_of_int (i + 1)))
      and in2 = Float.Array.init n (fun i -> Float.cos (float_of_int i)) in
      let want = run_loop ~engine:`Interp m ~n in1 in2 in
      List.for_all
        (fun tile ->
          let got = run_loop ~engine:(`Batched tile) m ~n in1 in2 in
          let ok = ref true in
          for i = 0 to n - 1 do
            if
              not
                (Helpers.same_float (Float.Array.get got i)
                   (Float.Array.get want i))
            then ok := false
          done;
          !ok)
        [ 0; 1; 5; 1024 ])

(* -- every access kind raises on an out-of-range index ------------------ *)

type access = Load | Store | VLoad | VStore | Gather | Scatter

(* A parallel loop copying [src] to [dst] at the induction index (gathers
   and scatters at [iv + iota]); [access] picks how one side is done and
   the other side is a plain load or store of the same width. *)
let oob_loop ?(parallel = true) (access : access) ~(w : int) : Ir.Func.modl =
  let m = Ir.Func.create_module "oob_loop" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f" ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
       ~results:[]
       (fun b args ->
         let src = List.nth args 0
         and dst = List.nth args 1
         and n = List.nth args 2 in
         ignore
           (B.for_ b ~parallel ~lb:(B.consti b 0) ~ub:n
              ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let lanes () =
                  B.addi b (B.broadcast b ~width:w iv) (B.iota b ~width:w)
                in
                let x =
                  match access with
                  | Load | Store -> B.load b ~mem:src ~idx:iv
                  | Gather -> B.gather b ~mem:src ~idxs:(lanes ())
                  | VLoad | VStore | Scatter ->
                      B.vec_load b ~width:w ~mem:src ~idx:iv
                in
                (match access with
                | Load | Store -> B.store b x ~mem:dst ~idx:iv
                | Scatter -> B.scatter b ~vec:x ~mem:dst ~idxs:(lanes ())
                | VLoad | VStore | Gather ->
                    B.vec_store b ~vec:x ~mem:dst ~idx:iv);
                []));
         B.ret b []));
  m

(* Every memory access is bounds-checked on every OCaml engine: the
   buffer the access under test touches is one block short, so the last
   iteration must raise [Invalid_argument] rather than read or write past
   its end.  Batched runs the access twice: in a parallel loop, which
   tiles, so its tile instructions do it; and in a sequential loop,
   which fails the tiling gate, so its per-op thunks
   ({!Engine.compile_op}) do it, as they do for lookup-table
   initializers and every loop batched does not tile. *)
let test_oob_raises_on_every_engine () =
  let n = 16 in
  List.iter
    (fun (what, access, w) ->
      let tiled = oob_loop access ~w
      and untiled = oob_loop ~parallel:false access ~w in
      List.iter Ir.Verifier.verify_module_exn [ tiled; untiled ];
      if Batched.plan_tile tiled ~name:"f" <= 1 then
        Alcotest.failf "%s: parallel loop did not tile" what;
      if Batched.plan_tile untiled ~name:"f" <> 1 then
        Alcotest.failf "%s: sequential loop tiled" what;
      let short_src =
        match access with Load | VLoad | Gather -> true | _ -> false
      in
      let buf short = Float.Array.make (if short then n - w else n) 1.0 in
      List.iter
        (fun (engine, m, run) ->
          let args =
            [| Rt.M (buf short_src); Rt.M (buf (not short_src)); Rt.I n |]
          in
          match run m "f" args with
          | _ -> Alcotest.failf "%s on %s: no error past the buffer" what engine
          | exception Invalid_argument _ -> ())
        [
          ("interp", tiled, fun m f a -> Interp.run m f a);
          ("batched tiles", tiled, fun m f a -> Batched.run m f a);
          ("batched thunks", untiled, fun m f a -> Batched.run m f a);
        ])
    [
      ("load", Load, 1);
      ("store", Store, 1);
      ("vector load", VLoad, 4);
      ("vector store", VStore, 4);
      ("gather", Gather, 4);
      ("scatter", Scatter, 4);
    ]

let suite =
  [
    Alcotest.test_case "all 43: batched == interp bitwise across tiles" `Slow
      (test_all_models_match_interp batched_engines);
    Alcotest.test_case "all 43: batched == interp bitwise with spline tables"
      `Slow
      (test_all_models_match_interp ~configs:spline_configs batched_engine);
    Alcotest.test_case "all 43: Domain-parallel == sequential" `Slow
      test_all_models_parallel_identical;
    Alcotest.test_case "cubic LUT macro-op bitwise" `Quick
      test_cubic_lut_macro_op_bitwise;
    Alcotest.test_case "parallel tile chunks bitwise + race-free" `Quick
      test_parallel_tiles_identical;
    Alcotest.test_case "tile partitions accepted, block splits rejected"
      `Quick test_tile_partitions_checked;
    Alcotest.test_case "driver tile resolution" `Quick
      test_driver_tile_resolution;
    Alcotest.test_case "out-of-range access raises on every engine" `Quick
      test_oob_raises_on_every_engine;
    coalescer_sound;
    batched_matches_interp_on_loops ~w:1
      "batched == interp on random scalar loops (all tiles)";
    batched_matches_interp_on_loops ~w:4
      "batched == interp on random vector loops (all tiles)";
  ]
