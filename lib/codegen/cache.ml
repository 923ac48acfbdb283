(** Shared kernel-compile cache.

    Every entry point (CLI, bench harness, examples, the simulation
    driver) used to regenerate kernels from scratch — the bench harness
    even grew its own private memo table.  This module centralizes that:
    one process-wide table memoizing the whole
    parse → analyze → codegen → optimize → verify front half, keyed on

      model name × {!Config.describe} × pass-pipeline id × optimize flag.

    [Config.describe] covers every semantically relevant config field
    (width, layout, LUT mode, math mode), and the pipeline id is derived
    from the pass names of {!Passes.Pipeline.standard}, so a future
    pipeline change invalidates old keys rather than serving stale
    kernels.

    The table is guarded by a mutex so Domain-parallel harness code can
    share it; the cached {!Kernel.t} is immutable after generation (the
    execution engines allocate their own register files per compile), so
    handing the same kernel to several callers is safe. *)

module M = Easyml.Model

type stats = {
  hits : int;
  misses : int;
  compile_ms : float;  (** total milliseconds spent on cache misses *)
  spec_misses : int;  (** always 0 *)
  native_hits : int;  (** shared objects served from this process's table *)
  native_misses : int;  (** shared objects this process had to obtain *)
  native_disk_hits : int;  (** the misses served by the on-disk store *)
  cc_ms : float;  (** total milliseconds inside the C compiler *)
}

(* Pipeline identity: pass names in order.  Recorded into the key so a
   changed pipeline can never serve kernels optimized by the old one. *)
let pipeline_id : string =
  String.concat ">" (List.map (fun (p : Passes.Pass.t) -> p.name) Passes.Pipeline.standard)

let lock = Mutex.create ()
let table : (string, Kernel.t) Hashtbl.t = Hashtbl.create 64
let hits = ref 0
let misses = ref 0
let compile_ms = ref 0.0
let native_hits = ref 0
let native_misses = ref 0
let native_disk_hits = ref 0
let cc_ms = ref 0.0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* -- translation validation ------------------------------------------ *)

exception Validation_failed of Analysis.Transval.cert

(* Opt-in switch, {!set_validation}.  When on, every pipeline run behind
   this cache proves each pass application semantics-preserving and
   records the certificates alongside the artifact's key. *)
let validation = ref false

let set_validation (b : bool) : unit = locked (fun () -> validation := b)
let validation_enabled () : bool = locked (fun () -> !validation)

(* Certificates per cache key, most recent pass application last.
   Stored even for refuted runs (the raise happens after recording), so
   tooling can dump the full proof log of a failed pipeline. *)
let certs : (string, Analysis.Transval.cert list) Hashtbl.t =
  Hashtbl.create 64

let record_cert (k : string) (c : Analysis.Transval.cert) : unit =
  locked (fun () ->
      Hashtbl.replace certs k
        (c :: Option.value ~default:[] (Hashtbl.find_opt certs k)));
  Obs.Tracer.count
    ("transval." ^ Analysis.Transval.verdict_name c.Analysis.Transval.c_verdict)
    1.0

let certificates () : (string * Analysis.Transval.cert list) list =
  locked (fun () ->
      Hashtbl.fold (fun k cs acc -> (k, List.rev cs) :: acc) certs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* The per-pass callback handed to {!Passes.Pipeline.optimize}: prove
   input ≡ output, record the certificate under the artifact key, and
   abort the pipeline on a refutation. *)
let validator (k : string) : string -> Ir.Func.modl -> Ir.Func.modl -> unit =
 fun pass_name pre post ->
  let cert = Analysis.Transval.check_module ~pass:pass_name pre post in
  record_cert k cert;
  if Analysis.Transval.is_refuted cert then raise (Validation_failed cert)

let key ~(optimize : bool) (cfg : Config.t) (name : string) : string =
  Printf.sprintf "%s|%s|%s|v1" name (Config.describe cfg)
    (if optimize then pipeline_id else "no-opt")

(** [generate_named ?optimize cfg ~name parse] returns the cached kernel
    for [name] under [cfg], calling [parse] (the parse+analyze front end)
    only on a miss.  The generated module is verified once, on the miss. *)
let generate_named ?(optimize = true) (cfg : Config.t) ~(name : string)
    (parse : unit -> M.t) : Kernel.t =
  let k = key ~optimize cfg name in
  match locked (fun () -> Hashtbl.find_opt table k) with
  | Some g ->
      locked (fun () -> incr hits);
      Obs.Tracer.count "cache.hit" 1.0;
      g
  | None ->
      Obs.Tracer.count "cache.miss" 1.0;
      let t0 = Unix.gettimeofday () in
      let g =
        Obs.Tracer.with_span ("cache.compile:" ^ name) (fun () ->
            let model = parse () in
            let validate =
              if validation_enabled () then Some (validator k) else None
            in
            let g = Kernel.generate ~optimize ?validate cfg model in
            Ir.Verifier.verify_module_exn g.Kernel.modl;
            g)
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      locked (fun () ->
          (* another domain may have raced us to the same key; keep the
             first entry so every caller sees one kernel instance *)
          match Hashtbl.find_opt table k with
          | Some g' ->
              incr hits;
              g'
          | None ->
              incr misses;
              compile_ms := !compile_ms +. ms;
              Hashtbl.replace table k g;
              g)

(** Like {!generate_named} for an already-analyzed model (keyed on
    [model.name]). *)
let generate ?optimize (cfg : Config.t) (model : M.t) : Kernel.t =
  generate_named ?optimize cfg ~name:model.M.name (fun () -> model)

(* Content identity of a kernel module: an MD5 of the printed IR
   ([%.17g] floats round-trip, so distinct constants stay distinct).
   Native libraries key on this rather than on the model name alone — a
   kernel handed to {!native} need not have come through this cache
   (tests and tools call {!Kernel.generate} directly), and two different
   modules under one model name must never share a library.  Memoized
   per module instance (physical equality): every driver of a run asks
   for the same cached kernel. *)
let digest_memo : (Ir.Func.modl * string) list ref = ref []

let kernel_digest (m : Ir.Func.modl) : string =
  match
    locked (fun () ->
        List.find_opt (fun (m', _) -> m' == m) !digest_memo)
  with
  | Some (_, d) -> d
  | None ->
      let d = Digest.to_hex (Digest.string (Ir.Printer.module_to_string m)) in
      locked (fun () ->
          digest_memo :=
            (m, d) :: List.filteri (fun i _ -> i < 127) !digest_memo);
      d

let specialize (g : Kernel.t) ~dt:(_ : float) ~ncells_pad:(_ : int) : Kernel.t =
  g

(* -- native artifact cache ------------------------------------------- *)

(* Loaded shared objects, keyed on IR content digest × compiler
   identity × flags — never on the model name, so two modules that print
   identically share one .so and a changed pipeline or config (different
   printed IR) can never serve a stale library.  A miss here
   goes to the on-disk store ({!Exec.Native.compile}), which keys on the
   emitted translation unit itself and only runs the C compiler when no
   earlier process left an intact library.  Entries are kept for the
   whole process: bound closures hold raw function pointers, so
   libraries are never dlclosed (and clear() below leaves them loaded
   for the same reason). *)

type native_artifact = Memory | Disk | Compiled of float

let artifact_name = function
  | Memory -> "memory"
  | Disk -> "disk"
  | Compiled _ -> "compiled"

type native_entry = {
  ne_lib : Exec.Native.lib;
  ne_params : (string * Ir.Ty.t list) list;  (* per-function signatures *)
  mutable ne_served : native_artifact;  (* how the latest request was served *)
}

let native_table : (string, native_entry) Hashtbl.t = Hashtbl.create 16

(* One fresh binding per call: bound closures reuse private marshalling
   buffers, so each driver thread must get its own (exactly like the
   batched engine allocates a register file per compile). *)
let native_lookup (e : native_entry) (name : string) :
    Exec.Rt.v array -> Exec.Rt.v array =
  match List.assoc_opt name e.ne_params with
  | Some params ->
      Exec.Native.bind e.ne_lib ~symbol:(C_backend.symbol name) ~params
  | None -> invalid_arg ("Cache.native: no such kernel function: " ^ name)

let func_params (m : Ir.Func.modl) : (string * Ir.Ty.t list) list =
  List.map
    (fun (f : Ir.Func.func) ->
      ( f.Ir.Func.f_name,
        List.map (fun (v : Ir.Value.t) -> v.Ir.Value.ty) f.Ir.Func.f_params ))
    m.Ir.Func.m_funcs

let native_key (tc : Exec.Native.toolchain) (g : Kernel.t) : string =
  Printf.sprintf "native|%s|%s|%s" (kernel_digest g.Kernel.modl)
    tc.Exec.Native.id Exec.Native.flags_id

(** [native g] returns a symbol-lookup function over [g]'s module
    compiled to machine code by the system C toolchain, or a warning
    diagnostic when that is impossible (no toolchain, IR with no C
    lowering, compiler failure) — callers degrade to an OCaml engine,
    they never crash. *)
let native (g : Kernel.t) :
    (string -> Exec.Rt.v array -> Exec.Rt.v array, Easyml.Diag.t) result =
  match Exec.Native.toolchain () with
  | None ->
      Error
        (Easyml.Diag.make ~code:"native-unavailable"
           "no C compiler found (checked $LIMPET_CC, then cc/gcc/clang on \
            $PATH); falling back to the batched engine")
  | Some tc -> (
      let k = native_key tc g in
      match locked (fun () -> Hashtbl.find_opt native_table k) with
      | Some e ->
          locked (fun () ->
              incr native_hits;
              e.ne_served <- Memory);
          Obs.Tracer.count "cache.native_hit" 1.0;
          Ok (native_lookup e)
      | None -> (
          Obs.Tracer.count "cache.native_miss" 1.0;
          try
            let banner =
              [
                "model:    " ^ g.Kernel.model.M.name;
                "config:   " ^ Config.describe g.Kernel.cfg;
                "pipeline: " ^ pipeline_id;
                "digest:   " ^ kernel_digest g.Kernel.modl;
                "cc:       " ^ tc.Exec.Native.id;
                "flags:    " ^ Exec.Native.flags_id;
              ]
            in
            let src = C_backend.emit_module ~banner g.Kernel.modl in
            let lib, origin = Exec.Native.compile tc ~src in
            let served =
              match origin with
              | Exec.Native.Disk ->
                  Obs.Tracer.count "cache.native_disk_hit" 1.0;
                  Disk
              | Exec.Native.Compiled ms ->
                  Obs.Tracer.count "cache.native_compile" 1.0;
                  Compiled ms
            in
            let e =
              locked (fun () ->
                  (* keep a racing domain's entry so everyone shares one
                     library instance *)
                  match Hashtbl.find_opt native_table k with
                  | Some e' ->
                      incr native_hits;
                      e'.ne_served <- Memory;
                      e'
                  | None ->
                      incr native_misses;
                      (match served with
                      | Disk -> incr native_disk_hits
                      | Compiled ms -> cc_ms := !cc_ms +. ms
                      | Memory -> ());
                      let e =
                        {
                          ne_lib = lib;
                          ne_params = func_params g.Kernel.modl;
                          ne_served = served;
                        }
                      in
                      Hashtbl.replace native_table k e;
                      e)
            in
            Ok (native_lookup e)
          with
          | C_backend.Unsupported msg ->
              Error
                (Easyml.Diag.makef ~code:"native-unsupported"
                   "kernel %s has no C lowering (%s); falling back to the \
                    batched engine"
                   g.Kernel.model.M.name msg)
          | Exec.Native.Compile_error { cc; file; status; log } ->
              Error
                (Easyml.Diag.makef ~code:"cc-failed"
                   "%s exited with status %d compiling %s: %s; falling back \
                    to the batched engine"
                   cc status file (String.trim log))
          | (Sys_error _ | Unix.Unix_error _) as e ->
              Error
                (Easyml.Diag.makef ~code:"native-io"
                   "cannot write the native kernel for %s (%s); falling \
                    back to the batched engine"
                   g.Kernel.model.M.name (Printexc.to_string e))))

(** How the latest {!native} request for [g] was served, or [None] when
    [g] has no loaded library. *)
let native_artifact (g : Kernel.t) : native_artifact option =
  match Exec.Native.toolchain () with
  | None -> None
  | Some tc ->
      let k = native_key tc g in
      locked (fun () ->
          Option.map (fun e -> e.ne_served) (Hashtbl.find_opt native_table k))

let stats () : stats =
  locked (fun () ->
      {
        hits = !hits;
        misses = !misses;
        compile_ms = !compile_ms;
        spec_misses = 0;
        native_hits = !native_hits;
        native_misses = !native_misses;
        native_disk_hits = !native_disk_hits;
        cc_ms = !cc_ms;
      })

let reset_stats () : unit =
  locked (fun () ->
      hits := 0;
      misses := 0;
      compile_ms := 0.0;
      native_hits := 0;
      native_misses := 0;
      native_disk_hits := 0;
      cc_ms := 0.0)

(** Drop every entry (tests use this to force fresh compiles). *)
let clear () : unit =
  locked (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset certs;
      (* native entries survive clear(): bound closures hold raw function
         pointers into the loaded libraries, so they are never unloaded;
         the stats still reset so tests can count fresh compiles *)
      hits := 0;
      misses := 0;
      compile_ms := 0.0;
      native_hits := 0;
      native_misses := 0;
      native_disk_hits := 0;
      cc_ms := 0.0)

let describe_stats () : string =
  let s = stats () in
  Printf.sprintf
    "cache: %d hits / %d misses / %.1f ms compiling; native: %d hits / %d \
     misses (%d from disk) / %.1f ms cc"
    s.hits s.misses s.compile_ms s.native_hits s.native_misses
    s.native_disk_hits s.cc_ms
