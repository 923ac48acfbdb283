(* Native (JIT-compiled C) engine tests: trajectory differential against
   the batched engine on the full model catalogue, qcheck differential of
   the C emitter vs. the interpreter on random lowered loops, vector
   lane edge cases (NaN, -0.0, masks), parallel == sequential,
   artifact-cache accounting, the ISA probe, per-step allocation, and
   the failure paths (no toolchain, failing compiler, malformed C) — all
   of which must surface structured diagnostics or degrade, never
   crash.

   Every test that needs a C compiler skips cleanly when none is
   available (the suite still reports the availability status). *)

open Exec
module C = Codegen.Config
module B = Ir.Builder

let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.5 ~duration:1.0 ()
let configs =
  [
    ("scalar", C.baseline);
    ("w2", C.mlir ~width:2);
    ("w4", C.mlir ~width:4);
    ("w8", C.mlir ~width:8);
  ]
let ncells = 13

let have_cc () = Native.available ()

let skip_without_cc () =
  if not (have_cc ()) then
    Alcotest.skip ()

(* Documented ULP bound for the native-vs-OCaml differential.  Every libm
   call site in the emitted C routes to the same glibc entry point the
   OCaml engines call (OCaml's Float.exp etc. are direct externs), FMA
   contraction is disabled (-ffp-contract=off) and float constants are
   emitted as exact hex literals, so trajectories are expected bitwise
   identical (ULP distance 0) on any box with one libm.  The bound of 2
   exists only to absorb cross-toolchain constant-rounding differences;
   a regression past it is a real emitter bug. *)
let native_ulp_bound = 2L

let ulp_diff (a : float) (b : float) : int64 =
  if Float.is_nan a && Float.is_nan b then 0L
  else if Float.is_nan a || Float.is_nan b then Int64.max_int
  else
    (* map to a monotone integer line so adjacent floats differ by 1 *)
    let line x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits
    in
    Int64.abs (Int64.sub (line a) (line b))

let check_snapshots_ulp ~ctx a b =
  List.iter2
    (fun (n, x) (_, y) ->
      if not (Float.is_finite x) then Alcotest.failf "%s: %s not finite" ctx n;
      let d = ulp_diff x y in
      if Int64.compare d native_ulp_bound > 0 then
        Alcotest.failf "%s: %s differs by %Ld ULP: %.17g vs %.17g" ctx n d x y)
    a b

(* -- 43-model trajectory differential ----------------------------------- *)

(* native == batched within the documented ULP bound (bitwise in practice)
   on every model, scalar and at vector widths 2, 4 and 8, over a
   stimulated 50-step trajectory. *)
let test_all_models_native_vs_batched () =
  skip_without_cc ();
  List.iter
    (fun (e : Models.Model_def.entry) ->
      List.iter
        (fun (cname, cfg) ->
          let g =
            Codegen.Cache.generate_named cfg ~name:e.name (fun () ->
                Models.Registry.model e)
          in
          let run engine =
            let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
            for _ = 1 to 50 do
              Sim.Driver.step ~stim d
            done;
            (d, List.map (fun cell -> (cell, Sim.Driver.snapshot d cell)) [ 0; 6; 12 ])
          in
          let dn, native = run Sim.Driver.Native in
          if dn.Sim.Driver.engine <> Sim.Driver.Native then
            Alcotest.failf "%s/%s: native driver fell back unexpectedly"
              e.name cname;
          let _, batched = run Sim.Driver.Batched in
          List.iter2
            (fun (cell, a) (_, b) ->
              check_snapshots_ulp
                ~ctx:(Printf.sprintf "%s/%s cell %d" e.name cname cell)
                a b)
            native batched)
        configs)
    Models.Registry.all

(* The cubic-spline LUT path exercises the inlined Catmull-Rom helpers. *)
let test_cubic_lut_native () =
  skip_without_cc ();
  List.iter
    (fun name ->
      let cfg = { (C.mlir ~width:4) with C.lut_spline = true } in
      let e = Models.Registry.find_exn name in
      let g =
        Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name
          (fun () -> Models.Registry.model e)
      in
      let run engine =
        let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
        if d.Sim.Driver.engine <> engine then
          Alcotest.failf "%s: driver fell back from the requested engine" name;
        for _ = 1 to 50 do
          Sim.Driver.step ~stim d
        done;
        Sim.Driver.snapshot d 6
      in
      check_snapshots_ulp
        ~ctx:(name ^ " cubic native/batched")
        (run Sim.Driver.Native) (run Sim.Driver.Batched))
    [ "MitchellSchaeffer"; "LuoRudy91"; "TenTusscher" ];
  (* NaN row, through both C helpers: a NaN Vm in cell 6 interpolates to
     NaN without a read outside the table, and every other lane of its
     vector block stays finite and equal to batched *)
  List.iter
    (fun (name, spline) ->
      let cfg = { (C.mlir ~width:4) with C.lut_spline = spline } in
      let e = Models.Registry.find_exn name in
      let g =
        Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name
          (fun () -> Models.Registry.model e)
      in
      let nan_stage engine =
        let d = Sim.Driver.create ~engine g ~ncells ~dt:0.01 in
        if d.Sim.Driver.engine <> engine then
          Alcotest.failf "%s: driver fell back from the requested engine" name;
        Sim.Driver.set_ext d "Vm" 6 Float.nan;
        Sim.Driver.compute_stage d;
        List.init ncells (Sim.Driver.snapshot d)
      in
      List.iteri
        (fun cell (a, b) ->
          let ctx =
            Printf.sprintf "%s NaN lookup (spline %b), cell %d" name spline
              cell
          in
          if cell = 6 then
            List.iter2
              (fun (n, x) (_, y) ->
                if Int64.compare (ulp_diff x y) native_ulp_bound > 0 then
                  Alcotest.failf "%s: %s: %.17g vs %.17g" ctx n x y)
              a b
          else check_snapshots_ulp ~ctx a b)
        (List.combine (nan_stage Sim.Driver.Native)
           (nan_stage Sim.Driver.Batched)))
    [ ("LuoRudy91", false); ("LuoRudy91", true); ("TenTusscher", true) ]

(* Domain-parallel native stepping is bitwise identical to sequential:
   per-thread bindings marshal into private buffers and chunks are
   disjoint. *)
let test_parallel_identical () =
  skip_without_cc ();
  List.iter
    (fun name ->
      let e = Models.Registry.find_exn name in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      let mk () =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:17 ~dt:0.01
      in
      let ds = mk () and dp = mk () in
      for _ = 1 to 50 do
        Sim.Driver.step ~stim ds;
        Sim.Driver.step ~nthreads:4 ~stim dp
      done;
      for cell = 0 to 16 do
        List.iter2
          (fun (n, x) (_, y) ->
            if not (Helpers.same_float x y) then
              Alcotest.failf "%s parallel cell %d: %s: %.17g vs %.17g" name
                cell n x y)
          (Sim.Driver.snapshot ds cell)
          (Sim.Driver.snapshot dp cell)
      done)
    [ "MitchellSchaeffer"; "LuoRudy91" ]

(* -- qcheck: C emitter vs. the interpreter on random lowered loops ----- *)

let lower_loop ~(w : int) (e : Easyml.Ast.expr) : Ir.Func.modl =
  let m = Ir.Func.create_module "nat_loop" in
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
                    (B.load b ~mem:in1 ~idx:iv, B.load b ~mem:in2 ~idx:iv)
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

(* Call the module's function "f" compiled to native code. *)
let call_native (m : Ir.Func.modl) (args : Rt.v array) : unit =
  let tc = Option.get (Native.toolchain ()) in
  let src = Codegen.C_backend.emit_module m in
  let lib, _origin = Native.compile tc ~src in
  let f = List.find (fun f -> f.Ir.Func.f_name = "f") m.Ir.Func.m_funcs in
  let call =
    Native.bind lib ~symbol:(Codegen.C_backend.symbol "f")
      ~params:(List.map (fun (p : Ir.Value.t) -> p.Ir.Value.ty) f.Ir.Func.f_params)
  in
  ignore (call args)

(* The buffer [f] writes, on the native engine and on the interpreter;
   [args out] is its argument vector. *)
let both_engines (m : Ir.Func.modl) ~(n : int) (args : floatarray -> Rt.v array)
    : floatarray * floatarray =
  let run call =
    let out = Float.Array.make n 0.0 in
    call m (args out);
    out
  in
  (run call_native, run (fun m a -> ignore (Interp.run m "f" a)))

(* [lower_loop]'s outputs on both engines. *)
let run_loop (m : Ir.Func.modl) ~(n : int) (in1 : floatarray)
    (in2 : floatarray) : floatarray * floatarray =
  both_engines m ~n (fun out -> [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |])

let loop_inputs n =
  ( Float.Array.init n (fun i -> Float.sin (float_of_int (i + 1))),
    Float.Array.init n (fun i -> Float.cos (float_of_int i)) )

let native_matches_interp_on_loops ~(w : int) name =
  (* each case invokes the C compiler once; keep the count moderate *)
  Helpers.qtest ~count:25 name
    (Helpers.arbitrary_expr [ "x"; "y" ])
    (fun e ->
      (* vacuously true without a toolchain (the availability test below
         reports the status) *)
      have_cc ()
      = false
      ||
      (* raw lowered IR, deliberately unoptimized: constant-argument
         transcendentals survive to the emitter, exercising the flags
         that keep the C compiler's own (correctly-rounded MPFR)
         compile-time libm out of the kernel *)
      let m = lower_loop ~w e in
      Ir.Verifier.verify_module_exn m;
      (* whole blocks at every width *)
      let n = 24 in
      let in1, in2 = loop_inputs n in
      let got, want = run_loop m ~n in1 in2 in
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          not
            (Helpers.same_float (Float.Array.get got i)
               (Float.Array.get want i))
        then ok := false
      done;
      !ok)

(* A C compiler folds a libm call whose argument it can prove constant
   with its own correctly-rounded library (MPFR), which differs from
   glibc by an ULP or two on some arguments; [Native.flags] forbid it
   per function.  Two shapes of unoptimized IR whose calls cc -O3 sees
   as constant: a select with a constant arm (cc splits the select and
   folds the arm), and a constant-trip loop (cc unrolls it and folds
   through it). *)
let test_constant_libm_calls_run_at_run_time () =
  skip_without_cc ();
  let check what (got : floatarray) (want : floatarray) =
    Float.Array.iteri
      (fun i w ->
        let g = Float.Array.get got i in
        if not (Helpers.same_float g w) then
          Alcotest.failf "%s, element %d: native %h, interp %h" what i g w)
      want
  in
  let select_arm =
    match
      Easyml.Parser.parse_program
        "r = exp(tanh(x * 1.3886991415001999 < 0.5 ? 2.8357135923780508 * \
         -3.5638115879208803 : tanh(-2.3515081841209851)));"
    with
    | [ Easyml.Ast.Assign (_, _, e) ] -> e
    | _ -> assert false
  in
  List.iter
    (fun w ->
      let n = 12 in
      let in1, in2 = loop_inputs n in
      let got, want = run_loop (lower_loop ~w select_arm) ~n in1 in2 in
      check (Printf.sprintf "select with a constant arm, w=%d" w) got want)
    [ 1; 4 ];
  (* log1p of 0x1.0b4a645decc5cp+2 doubled twice *)
  let m = Ir.Func.create_module "nat_fold_loop" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f" ~params:[ Ir.Ty.Memref ] ~results:[] (fun b args ->
         let x =
           B.for_ b ~lb:(B.consti b 0) ~ub:(B.consti b 2) ~step:(B.consti b 1)
             ~inits:[ B.constf b 0x1.0b4a645decc5cp+2 ]
             (fun ~iv:_ ~iters -> List.map (fun x -> B.addf b x x) iters)
         in
         B.store b (B.math b "log1p" x) ~mem:(List.hd args) ~idx:(B.consti b 0);
         B.ret b []));
  let got, want = both_engines m ~n:1 (fun out -> [| Rt.M out |]) in
  check "constant two-trip loop into log1p" got want

(* -- artifact cache ----------------------------------------------------- *)

let test_cache_accounting () =
  skip_without_cc ();
  let e = Models.Registry.find_exn "BeelerReuter" in
  let g =
    Codegen.Cache.generate_named (C.mlir ~width:4)
      ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
  in
  Codegen.Cache.reset_stats ();
  let mk () =
    Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:7 ~dt:0.02
  in
  let d1 = mk () in
  Alcotest.(check bool) "first driver runs native" true
    (d1.Sim.Driver.engine = Sim.Driver.Native);
  let s1 = Codegen.Cache.stats () in
  Alcotest.(check bool) "first driver misses or hits a prior artifact" true
    (s1.Codegen.Cache.native_misses + s1.Codegen.Cache.native_hits >= 1);
  let d2 = mk () in
  ignore d2;
  let s2 = Codegen.Cache.stats () in
  Alcotest.(check bool) "second identical driver hits" true
    (s2.Codegen.Cache.native_hits > s1.Codegen.Cache.native_hits);
  Alcotest.(check int) "no recompile on the hit" s1.Codegen.Cache.native_misses
    s2.Codegen.Cache.native_misses;
  if s1.Codegen.Cache.native_misses > 0 then
    Alcotest.(check bool) "compiler time accounted" true
      (s2.Codegen.Cache.cc_ms > 0.0);
  Alcotest.(check bool) "describe_stats mentions native" true
    (Helpers.contains (Codegen.Cache.describe_stats ()) "native")

(* [dt] and the cell count are kernel arguments: drivers at another
   population or step share the model × config's one library, and only
   another config compiles a second. *)
let test_one_artifact_per_config () =
  skip_without_cc ();
  let e = Models.Registry.find_exn "BeelerReuter" in
  let gen cfg =
    Codegen.Cache.generate_named cfg ~name:e.Models.Model_def.name (fun () ->
        Models.Registry.model e)
  in
  (* configs no other test compiles BeelerReuter under natively, so the
     first driver of each is a miss *)
  let g = gen (C.autovec ~width:2) in
  Codegen.Cache.reset_stats ();
  let misses () = (Codegen.Cache.stats ()).Codegen.Cache.native_misses in
  let native g ~ncells ~dt =
    let d = Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells ~dt in
    Alcotest.(check bool) "runs native" true
      (d.Sim.Driver.engine = Sim.Driver.Native)
  in
  native g ~ncells:64 ~dt:0.005;
  native g ~ncells:96 ~dt:0.005;
  native g ~ncells:7 ~dt:0.02;
  Alcotest.(check int) "one native miss for three populations and steps" 1
    (misses ());
  native (gen (C.autovec ~width:4)) ~ncells:64 ~dt:0.005;
  Alcotest.(check int) "another config is a new miss" 2 (misses ())

(* -- failure paths ------------------------------------------------------ *)

let test_fallback_without_toolchain () =
  Native.with_toolchain None (fun () ->
      Alcotest.(check bool) "available() reports false" false
        (Native.available ());
      let e = Models.Registry.find_exn "MitchellSchaeffer" in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      (* no exception; the driver silently (minus one stderr warning)
         runs on the batched engine *)
      let d =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:9 ~dt:0.01
      in
      Alcotest.(check bool) "fell back to batched" true
        (d.Sim.Driver.engine = Sim.Driver.Batched);
      Alcotest.(check bool) "no native lookup kept" true
        (d.Sim.Driver.native = None);
      for _ = 1 to 10 do
        Sim.Driver.step ~stim d
      done;
      Alcotest.(check bool) "fallback driver steps fine" true
        (Float.is_finite (Sim.Driver.vm d 0)))

let test_failing_compiler_diagnostic () =
  if not (Sys.file_exists "/bin/false") then Alcotest.skip ();
  Native.with_toolchain
    (Some { Native.cc = "/bin/false"; id = "/bin/false (test)" })
    (fun () ->
      let e = Models.Registry.find_exn "MitchellSchaeffer" in
      let g =
        Codegen.Cache.generate_named (C.mlir ~width:4)
          ~name:e.Models.Model_def.name (fun () -> Models.Registry.model e)
      in
      (match Codegen.Cache.native g with
      | Ok _ -> Alcotest.fail "a failing compiler produced an artifact"
      | Error diag ->
          Alcotest.(check string) "structured code" "cc-failed"
            diag.Easyml.Diag.code);
      (* and the driver still degrades instead of raising *)
      let d =
        Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:9 ~dt:0.01
      in
      Alcotest.(check bool) "fell back to batched" true
        (d.Sim.Driver.engine = Sim.Driver.Batched))

let test_malformed_c_compile_error () =
  skip_without_cc ();
  let tc = Option.get (Native.toolchain ()) in
  match Native.compile tc ~src:"int main( {" with
  | _ -> Alcotest.fail "malformed C compiled"
  | exception Native.Compile_error { status; log; file; _ } ->
      Alcotest.(check bool) "non-zero status" true (status <> 0);
      Alcotest.(check bool) "stderr captured" true (String.length log > 0);
      Alcotest.(check bool) "source kept for post-mortem" true
        (Sys.file_exists file)

let test_unsupported_ir_diagnostic () =
  (* vector-typed function parameters, and vector widths gcc and clang
     have no vector type for, have no C lowering: the emitter must
     refuse with Unsupported (which Cache.native turns into a structured
     diagnostic), not emit wrong code *)
  let refused what (build : B.t -> Ir.Value.t list -> unit) params =
    let m = Ir.Func.create_module "bad" in
    let c = B.create_ctx () in
    Ir.Func.add_func m (B.func c ~name:"f" ~params ~results:[] build);
    match Codegen.C_backend.emit_module m with
    | _ -> Alcotest.failf "%s emitted" what
    | exception Codegen.C_backend.Unsupported msg ->
        Alcotest.(check bool) (what ^ ": message names the problem") true
          (Helpers.contains msg "vector")
  in
  refused "vector parameter" (fun b _ -> B.ret b []) [ Ir.Ty.Vec (4, Ir.Ty.F64) ];
  refused "3-lane vector"
    (fun b args ->
      let v = B.vec_load b ~width:3 ~mem:(List.hd args) ~idx:(B.consti b 0) in
      B.vec_store b ~vec:v ~mem:(List.hd args) ~idx:(B.consti b 0);
      B.ret b [])
    [ Ir.Ty.Memref ]

(* -- the persistent kernel store ------------------------------------------ *)

let rec rm_rf (p : string) : unit =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p

let with_temp_dir (f : string -> unit) : unit =
  let d = Filename.temp_dir "limpet-store-test" "" in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* the CLI next to this test executable in the build tree *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/limpetmlir.exe"

let skip_without_cli () =
  skip_without_cc ();
  if not (Sys.file_exists cli) then Alcotest.skip ()

let read_text (p : string) : string =
  try In_channel.with_open_bin p In_channel.input_all with Sys_error _ -> ""

(* Start [exe] with [env] overriding the inherited environment; the
   returned thunk waits for it and gives (exit code, stdout, stderr). *)
let start_exe (exe : string) ~(env : (string * string) list)
    (args : string list) : unit -> int * string * string =
  let out = Filename.temp_file "limpet-out" "" in
  let err = Filename.temp_file "limpet-err" "" in
  let fd p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = fd out and fd_err = fd err in
  let inherited =
    List.filter
      (fun s ->
        not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") s) env))
      (Array.to_list (Unix.environment ()))
  in
  let environment =
    Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env @ inherited)
  in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) environment
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  fun () ->
    let code =
      match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
    in
    let r = (code, read_text out, read_text err) in
    Sys.remove out;
    Sys.remove err;
    r

let start_cli = start_exe cli
let run_cli ~env args = start_cli ~env args ()

(* A cache root with a compiler wrapper that passes --version through
   (so the compiler identity is the real one's) and logs every other
   invocation. *)
type root = { env : (string * string) list; log : string; store : string }

let make_root ~(fail : bool) (dir : string) : root =
  let real = (Option.get (Native.toolchain ())).Native.cc in
  let log = Filename.concat dir "cc.log" in
  let wrapper = Filename.concat dir "cc-wrapper" in
  Out_channel.with_open_bin wrapper (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\ncase \"$1\" in --version) exec %s \"$@\" ;; esac\n\
         echo x >> %s\n%s\n"
        (Filename.quote real) (Filename.quote log)
        (if fail then "exit 1" else "exec " ^ Filename.quote real ^ " \"$@\""));
  Unix.chmod wrapper 0o755;
  let cache = Filename.concat dir "cache" in
  {
    env = [ ("XDG_CACHE_HOME", cache); ("LIMPET_CC", wrapper) ];
    log;
    store = Filename.concat (Filename.concat cache "limpetmlir") "native";
  }

let cc_calls (r : root) : int =
  List.length
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_text r.log)))

let final_digest ~ctx (code, out, err) : string =
  if code <> 0 then Alcotest.failf "%s: exit %d\n%s" ctx code err;
  let prefix = "# final state digest: " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
  with
  | Some l ->
      String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> Alcotest.failf "%s: no final state digest in\n%s" ctx out

let run_args =
  [ "run"; "LuoRudy91"; "--engine"; "native"; "--cells"; "64"; "--steps"; "50";
    "--trace-every"; "0"; "--final-digest" ]

let cable_args =
  [ "tissue"; "MitchellSchaeffer"; "--engine"; "native"; "--nx"; "64";
    "--steps"; "200"; "--final-digest" ]

let libraries (r : root) : string list =
  match Sys.readdir (r.store) with
  | names ->
      Array.to_list names
      |> List.filter (fun f -> Filename.check_suffix f ".so")
      |> List.map (Filename.concat (r.store))
  | exception Sys_error _ -> []

let manifest_artifact (dir : string) : string =
  let m = Obs.Json.parse_exn (read_text (Filename.concat dir "manifest.json")) in
  match Option.bind (Obs.Json.member "native" m) (Obs.Json.member "artifact") with
  | Some a -> Option.value ~default:"?" (Obs.Json.to_str a)
  | None -> "none"

(* A second process with the same cache root loads the library the
   first one published: same answer, one compiler run. *)
let test_store_warm_runs () =
  skip_without_cli ();
  List.iter
    (fun (what, args) ->
      with_temp_dir (fun dir ->
          let r = make_root ~fail:false dir in
          let ck k = [ "--checkpoint-dir"; Filename.concat dir k ] in
          let cold = final_digest ~ctx:(what ^ " cold") (run_cli ~env:r.env (args @ ck "a")) in
          Alcotest.(check int) (what ^ ": cold run compiles") 1 (cc_calls r);
          let warm = final_digest ~ctx:(what ^ " warm") (run_cli ~env:r.env (args @ ck "b")) in
          Alcotest.(check string) (what ^ ": warm digest") cold warm;
          Alcotest.(check int) (what ^ ": warm run does not compile") 1 (cc_calls r);
          Alcotest.(check string) (what ^ ": cold manifest") "compiled"
            (manifest_artifact (Filename.concat dir "a"));
          Alcotest.(check string) (what ^ ": warm manifest") "disk"
            (manifest_artifact (Filename.concat dir "b"))))
    [ ("run", run_args); ("tissue cable", cable_args) ]

(* profile says where the kernel came from, in the summary and in a
   Prometheus exposition that still validates. *)
let test_store_profile_reports_origin () =
  skip_without_cli ();
  with_temp_dir (fun dir ->
      let r = make_root ~fail:false dir in
      let profile fmt =
        let code, out, err =
          run_cli ~env:r.env
            [ "profile"; "LuoRudy91"; "--engine"; "native"; "--cells"; "64";
              "--steps"; "20"; "--format"; fmt ]
        in
        if code <> 0 then Alcotest.failf "profile --format %s: exit %d\n%s" fmt code err;
        out
      in
      Alcotest.(check bool) "cold summary" true
        (Helpers.contains (profile "summary") "native kernel: compiled");
      Alcotest.(check bool) "warm summary" true
        (Helpers.contains (profile "summary") "native kernel: disk");
      let prom = profile "prometheus" in
      Alcotest.(check bool) "disk hit counted" true
        (Helpers.contains prom "limpetmlir_counter{name=\"cache.native_disk_hit\"} 1");
      Alcotest.(check bool) "dlopen span" true
        (Helpers.contains prom "limpetmlir_span_count{span=\"native.load\"}");
      match Obs.Export.validate_prometheus prom with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exposition does not validate: %s" e)

(* A truncated library, a flipped byte or a lost digest record is
   deleted and recompiled: same answer, exit 0. *)
let test_store_damaged_entries () =
  skip_without_cli ();
  with_temp_dir (fun dir ->
      let r = make_root ~fail:false dir in
      let want = final_digest ~ctx:"cold" (run_cli ~env:r.env run_args) in
      let damage =
        [
          ("truncated", fun so -> Unix.truncate so 1000);
          ( "one byte flipped",
            fun so ->
              let b = Bytes.of_string (read_text so) in
              let i = Bytes.length b / 2 in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
              Out_channel.with_open_bin so (fun oc -> Out_channel.output_bytes oc b) );
          ("digest record deleted", fun so -> Sys.remove (Filename.chop_suffix so ".so" ^ ".md5"));
        ]
      in
      List.iteri
        (fun i (what, f) ->
          (match libraries r with
          | [ so ] -> f so
          | l -> Alcotest.failf "%s: expected one library, found %d" what (List.length l));
          let got = final_digest ~ctx:what (run_cli ~env:r.env run_args) in
          Alcotest.(check string) (what ^ ": digest") want got;
          Alcotest.(check int) (what ^ ": recompiled") (i + 2) (cc_calls r))
        damage)

(* A store directory other users can write is never read from. *)
let test_store_unsafe_dir () =
  skip_without_cli ();
  with_temp_dir (fun dir ->
      let r = make_root ~fail:false dir in
      let want = final_digest ~ctx:"cold" (run_cli ~env:r.env run_args) in
      let before = List.map read_text (libraries r) in
      Unix.chmod (r.store) 0o777;
      let ((_, _, err) as res) = run_cli ~env:r.env run_args in
      Unix.chmod (r.store) 0o700;
      Alcotest.(check string) "digest" want (final_digest ~ctx:"unsafe" res);
      Alcotest.(check bool) "native-cache-unsafe warning" true
        (Helpers.contains err "native-cache-unsafe");
      Alcotest.(check int) "compiled instead of loading" 2 (cc_calls r);
      Alcotest.(check bool) "store left untouched" true
        (before = List.map read_text (libraries r)))

(* Two cold processes racing to publish one key both succeed, and what
   they leave is intact: a third run compiles nothing. *)
let test_store_concurrent_publish () =
  skip_without_cli ();
  with_temp_dir (fun dir ->
      let r = make_root ~fail:false dir in
      let a = start_cli ~env:r.env run_args and b = start_cli ~env:r.env run_args in
      let da = final_digest ~ctx:"first" (a ()) and db = final_digest ~ctx:"second" (b ()) in
      Alcotest.(check string) "racing digests" da db;
      let n = cc_calls r in
      Alcotest.(check string) "third digest" da
        (final_digest ~ctx:"third" (run_cli ~env:r.env run_args));
      Alcotest.(check int) "third run loads the published entry" n (cc_calls r))

(* Publishing past the cap evicts least-recently-used entries, and a
   load counts as a use. *)
let test_store_capacity () =
  skip_without_cc ();
  let tc = Option.get (Native.toolchain ()) in
  with_temp_dir (fun dir ->
      Native.with_store (Some dir) (fun () ->
          let src n = Printf.sprintf "double f(double x) { return x + %d; }\n" n in
          let old = Unix.gettimeofday () -. 1e6 in
          let lib_a, origin = Native.compile tc ~src:(src 1) in
          Alcotest.(check bool) "first compile runs cc" true
            (match origin with Native.Compiled _ -> true | Native.Disk -> false);
          let so_a = Native.so_path lib_a in
          List.iter
            (fun p -> Unix.utimes p old old)
            [ so_a; Filename.chop_suffix so_a ".so" ^ ".md5" ];
          Alcotest.(check bool) "reload is a disk hit" true
            (snd (Native.compile tc ~src:(src 1)) = Native.Disk);
          (* fake entries, all older than the reloaded one *)
          let fake i = Filename.concat dir (Printf.sprintf "%032x" i) in
          for i = 1 to Native.capacity do
            List.iter
              (fun ext ->
                let p = fake i ^ ext in
                Out_channel.with_open_bin p (fun oc -> output_string oc "x");
                let t = old +. float_of_int i in
                Unix.utimes p t t)
              [ ".so"; ".md5" ]
          done;
          let lib_b, _ = Native.compile tc ~src:(src 2) in
          let keys =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> String.index_opt f '.' = Some 32)
            |> List.map (fun f -> String.sub f 0 32)
            |> List.sort_uniq compare
          in
          Alcotest.(check int) "entries after publishing" Native.capacity
            (List.length keys);
          List.iter
            (fun (what, p, want) ->
              Alcotest.(check bool) what want (Sys.file_exists p))
            [
              ("new entry kept", Native.so_path lib_b, true);
              ("recently loaded entry kept", Native.so_path lib_a, true);
              ("two oldest fakes evicted", fake 2 ^ ".so", false);
              ("newest fake kept", fake Native.capacity ^ ".so", true);
            ]))

(* The translation unit a cc-failed diagnostic names outlives the
   process that wrote it. *)
let test_failed_unit_kept () =
  skip_without_cli ();
  with_temp_dir (fun dir ->
      let r = make_root ~fail:true dir in
      let code, _, err =
        run_cli ~env:r.env
          [ "run"; "MitchellSchaeffer"; "--engine"; "native"; "--cells"; "8";
            "--steps"; "20"; "--trace-every"; "0" ]
      in
      Alcotest.(check int) "degrades, exit 0" 0 code;
      Alcotest.(check bool) "cc-failed diagnostic" true (Helpers.contains err "cc-failed");
      let file =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".c")
            (Array.to_list (Sys.readdir (r.store)))
        with
        | [ c ] -> Filename.concat (r.store) c
        | l -> Alcotest.failf "expected one kept unit, found %d" (List.length l)
      in
      Alcotest.(check bool) "the diagnostic names it" true (Helpers.contains err file);
      Alcotest.(check bool) "translation unit survives the process" true
        (Sys.file_exists file);
      Alcotest.(check bool) "log survives the process" true
        (Sys.file_exists (Filename.chop_suffix file ".c" ^ ".log")))

(* -- vector lanes: masks, blends, broadcasts ------------------------------ *)

(* Lane pairs (x, y) the vector forms must treat exactly as the OCaml
   engines do: NaNs of both signs and another payload, signed zeros,
   infinities, ties. *)
let edge_pairs =
  let nan2 = Int64.float_of_bits 0x7ff8000000000001L in
  [|
    (Float.nan, 1.0); (1.0, Float.nan); (Float.nan, -.Float.nan); (0.0, -0.0);
    (-0.0, 0.0); (1.0, 2.0); (2.0, 1.0); (Float.infinity, Float.neg_infinity);
    (-1.5, -1.5); (-0.0, -0.0); (nan2, 0.0); (-0.5, nan2);
    (Float.neg_infinity, -0.0); (3.0, 3.0); (-2.0, -0.5); (0.0, 0.0);
  |]

let edge_outputs = 11

(* [f(x, y, out, n)] over blocks of [w] lanes: vector output [k] of a
   block goes to [out.(k * n + iv ..)].  Output [5] selects on a mask
   that is itself a select between masks ([x < y] xor [x > y]). *)
let lane_edge_module ~(w : int) : Ir.Func.modl =
  let m = Ir.Func.create_module "nat_lanes" in
  let c = B.create_ctx () in
  Ir.Func.add_func m
    (B.func c ~name:"f"
       ~params:[ Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.Memref; Ir.Ty.I64 ]
       ~results:[]
       (fun b args ->
         let in1, in2, out, n =
           match args with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
         in
         ignore
           (B.for_ b ~lb:(B.consti b 0) ~ub:n ~step:(B.consti b w) ~inits:[]
              (fun ~iv ~iters:_ ->
                let x = B.vec_load b ~width:w ~mem:in1 ~idx:iv
                and y = B.vec_load b ~width:w ~mem:in2 ~idx:iv in
                let at k = B.addi b iv (B.muli b (B.consti b k) n) in
                let put k v = B.vec_store b ~vec:v ~mem:out ~idx:(at k) in
                let splat f = B.broadcast b ~width:w (B.constf b f) in
                let cmp c = B.cmpf b c x y in
                let lt = cmp Ir.Op.Lt in
                put 0 (B.select b lt x y);
                put 1 (B.select b (cmp Ir.Op.Ne) x y);
                put 2 (B.select b (cmp Ir.Op.Eq) x (splat (-0.0)));
                put 3 (B.select b (B.notb b (cmp Ir.Op.Ge)) y x);
                put 4
                  (B.select b
                     (B.andb b (cmp Ir.Op.Le) (B.cmpf b Ir.Op.Gt x (splat (-1.0))))
                     x y);
                let gt = cmp Ir.Op.Gt in
                put 5 (B.select b (B.select b lt (B.notb b gt) gt) x y);
                put 6 (splat (-0.0));
                put 7 (B.minf b x y);
                put 8 (B.maxf b x y);
                put 9 (B.math b "fmin" [ x; y ]);
                put 10 (B.math b "fmax" [ y; x ]);
                []));
         B.ret b []));
  m

(* Compares and blends with NaN lanes, a -0.0 broadcast, a blend of
   masks, and fmin/fmax on NaN and signed-zero lanes:
   the native kernel writes the interpreter's bits at widths 2, 4
   and 8. *)
let test_lane_edge_cases () =
  skip_without_cc ();
  let n = Array.length edge_pairs in
  let in1 = Float.Array.init n (fun i -> fst edge_pairs.(i))
  and in2 = Float.Array.init n (fun i -> snd edge_pairs.(i)) in
  List.iter
    (fun w ->
      let m = lane_edge_module ~w in
      Ir.Verifier.verify_module_exn m;
      let got, want =
        both_engines m ~n:(edge_outputs * n) (fun out ->
            [| Rt.M in1; Rt.M in2; Rt.M out; Rt.I n |])
      in
      Float.Array.iteri
        (fun i wv ->
          let gv = Float.Array.get got i in
          if Int64.bits_of_float gv <> Int64.bits_of_float wv then
            Alcotest.failf "w=%d output %d, lane pair %d: native %h, interp %h"
              w (i / n) (i mod n) gv wv)
        want)
    [ 2; 4; 8 ]

(* The vector-ISA flag follows the host: [Native.flags] ends in the
   probe's flag exactly when it reports one (and names no other), the
   kernel's own CPU feature list agrees where there is one, and emit -c's
   banner shows the flags. *)
let test_isa_flag () =
  let isa = List.filter (String.starts_with ~prefix:"-mavx") Native.flags in
  Alcotest.(check (list string)) "ISA flags in Native.flags"
    (Option.to_list Native.isa_flag) isa;
  (match Native.isa_flag with
  | Some f ->
      Alcotest.(check string) "appended last" f (List.hd (List.rev Native.flags))
  | None -> ());
  (match
     List.find_opt
       (String.starts_with ~prefix:"flags")
       (String.split_on_char '\n' (read_text "/proc/cpuinfo"))
   with
  | Some line ->
      let has f = List.mem f (String.split_on_char ' ' line) in
      let want =
        if has "avx512f" then Some "-mavx512f"
        else if has "avx2" then Some "-mavx2"
        else None
      in
      Alcotest.(check (option string)) "probe agrees with /proc/cpuinfo" want
        Native.isa_flag
  | None -> ());
  if Sys.file_exists cli then begin
    let code, out, err =
      run_cli ~env:[] [ "emit"; "MitchellSchaeffer"; "-w"; "8"; "-c" ]
    in
    if code <> 0 then Alcotest.failf "emit -c: exit %d\n%s" code err;
    Alcotest.(check bool) "emit -c banner shows the flags" true
      (List.mem
         ("/* flags:    " ^ String.concat " " Native.flags ^ " */")
         (String.split_on_char '\n' out))
  end

(* -- per-step allocation ------------------------------------------------- *)

(* A step reuses its runner's argument vector and the binding's
   marshalling packs: after warm-up, a compute stage on a 64-cell native
   driver allocates only the three arguments it rewrites (chunk bounds
   and clock).  The calls run on this domain, so its own counters
   measure them. *)
let test_compute_stage_minor_words () =
  skip_without_cc ();
  let e = Models.Registry.find_exn "LuoRudy91" in
  let g =
    Codegen.Cache.generate_named (C.mlir ~width:8) ~name:e.Models.Model_def.name
      (fun () -> Models.Registry.model e)
  in
  let d = Sim.Driver.create ~engine:Sim.Driver.Native g ~ncells:64 ~dt:0.01 in
  Alcotest.(check bool) "runs native" true
    (d.Sim.Driver.engine = Sim.Driver.Native);
  for _ = 1 to 20 do
    Sim.Driver.compute_stage d
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 200 do
    Sim.Driver.compute_stage d
  done;
  let per_step = (Gc.minor_words () -. before) /. 200.0 in
  if per_step >= 16.0 then
    Alcotest.failf "%.1f minor words per compute stage" per_step

let test_availability_report () =
  (* not an assertion about the box — just surface the probe result in
     the test log so CI artifacts show which path ran *)
  (match Native.toolchain () with
  | Some tc -> Printf.printf "native toolchain: %s\n%!" tc.Native.id
  | None -> Printf.printf "native toolchain: none (native tests skipped)\n%!");
  ()

let suite =
  [
    Alcotest.test_case "toolchain availability" `Quick test_availability_report;
    Alcotest.test_case "all 43: native vs batched within ULP bound" `Slow
      test_all_models_native_vs_batched;
    Alcotest.test_case "cubic LUT inline helpers" `Quick test_cubic_lut_native;
    Alcotest.test_case "parallel native == sequential" `Quick
      test_parallel_identical;
    native_matches_interp_on_loops ~w:1
      "native == interp on random scalar loops";
    native_matches_interp_on_loops ~w:4
      "native == interp on random vector loops";
    Alcotest.test_case "constant libm calls run at run time" `Quick
      test_constant_libm_calls_run_at_run_time;
    Alcotest.test_case "artifact cache hits and accounting" `Quick
      test_cache_accounting;
    Alcotest.test_case "one artifact per model and config" `Quick
      test_one_artifact_per_config;
    Alcotest.test_case "no toolchain: driver degrades to batched" `Quick
      test_fallback_without_toolchain;
    Alcotest.test_case "failing compiler: structured diagnostic" `Quick
      test_failing_compiler_diagnostic;
    Alcotest.test_case "malformed C: Compile_error with log" `Quick
      test_malformed_c_compile_error;
    Alcotest.test_case "unsupported IR: emitter refuses" `Quick
      test_unsupported_ir_diagnostic;
    Alcotest.test_case "store: warm run loads, same digest" `Quick
      test_store_warm_runs;
    Alcotest.test_case "store: profile reports the origin" `Quick
      test_store_profile_reports_origin;
    Alcotest.test_case "store: damaged entries recompile" `Quick
      test_store_damaged_entries;
    Alcotest.test_case "store: unsafe directory is not used" `Quick
      test_store_unsafe_dir;
    Alcotest.test_case "store: concurrent publishers" `Quick
      test_store_concurrent_publish;
    Alcotest.test_case "store: capacity and LRU eviction" `Quick
      test_store_capacity;
    Alcotest.test_case "store: failed unit outlives the process" `Quick
      test_failed_unit_kept;
    native_matches_interp_on_loops ~w:8
      "native == interp on random w=8 loops";
    Alcotest.test_case "vector lanes: NaN, -0.0, masks as i1" `Quick
      test_lane_edge_cases;
    Alcotest.test_case "ISA flag follows the probe" `Quick test_isa_flag;
    Alcotest.test_case "compute stage allocates only its arguments" `Quick
      test_compute_stage_minor_words;
  ]
