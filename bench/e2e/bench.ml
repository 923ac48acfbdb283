(** The parent: a closed loop with one client.  Each invocation is a
    child process ([main.exe child …]) started only after the previous
    one exited; the parent times each process as a whole and checks its
    answer against the {!Oracle}. *)

(* -- processes and scratch directories -------------------------------- *)

let rec mkdir_p (d : string) : unit =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf (p : string) : unit =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p

type invocation = {
  inv_wall : float;  (** spawn to exit, as the parent sees it *)
  outcome : (Child.result, string) result;
}

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* The child runs with TMPDIR (native build artifacts, checkpoints) and
   XDG_CACHE_HOME pointed into [root], so no cache, present or future,
   survives the rep. *)
let spawn ~(exe : string) ~(root : string) (args : string list) : invocation =
  let overridden s =
    List.exists
      (fun k -> String.starts_with ~prefix:(k ^ "=") s)
      [ "TMPDIR"; "XDG_CACHE_HOME" ]
  in
  let env =
    Array.append
      [|
        "TMPDIR=" ^ Filename.concat root "tmp";
        "XDG_CACHE_HOME=" ^ Filename.concat root "cache";
      |]
      (Array.of_list
         (List.filter (fun s -> not (overridden s)) (Array.to_list (Unix.environment ()))))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Child.now () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let status = waitpid pid in
  let inv_wall = Child.now () -. t0 in
  let last_line =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None
      (String.split_on_char '\n' out)
  in
  let outcome =
    match (status, last_line) with
    | Unix.WEXITED 0, Some l -> (
        match Child.of_json (Obs.Json.parse_exn l) with
        | r -> Ok r
        | exception (Failure m | Obs.Json.Parse_error m) -> Error ("bad result: " ^ m))
    | Unix.WEXITED 0, None -> Error "no result line"
    | Unix.WEXITED c, _ -> Error (Printf.sprintf "exit %d" c)
    | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ -> Error (Printf.sprintf "signal %d" s)
  in
  { inv_wall; outcome }

(* -- one workload's session ------------------------------------------- *)

type session = {
  w : Workload.t;
  smoke : bool;
  variant : int;
  reference : (Oracle.reference, string) result;
  cost : float * float;  (** computed flops and bytes per cell-step *)
  mutable reps : (string * float) list list;  (** untraced, oldest first *)
  mutable traced : (string * float) list option;
  mutable attempted : int;
  mutable failures : string list;
}

(** Untimed preparation: the reference answer and the machine model's
    computed flops/bytes for the kernel the workload runs. *)
let prepare ~(smoke : bool) ~(refs : string) (w : Workload.t) ~(variant : int) :
    session =
  let dt = Workload.dt ~variant in
  let g = Oracle.interp_kernel w in
  let sg = Codegen.Cache.specialize g ~dt ~ncells_pad:(Workload.ncells_pad w) in
  let cs = float_of_int (Workload.ncells w * Workload.steps w) in
  let r =
    Machine.Perfmodel.run_kernel sg ~ncells:(Workload.ncells w)
      ~steps:(Workload.steps w) ~nthreads:1
  in
  {
    w;
    smoke;
    variant;
    reference = Oracle.reference ~smoke ~dir:refs w ~variant;
    cost = (r.Machine.Perfmodel.flops /. cs, r.Machine.Perfmodel.bytes /. cs);
    reps = [];
    traced = None;
    attempted = 0;
    failures = [];
  }

let assoc0 k l = Option.value ~default:0.0 (List.assoc_opt k l)

(** One rep's value of every metric it measured (plus [child_wall_s],
    which the trace-overhead ratio needs). *)
let sample (s : session) ~(rep_wall : float) (invs : invocation list) :
    (string * float) list =
  let ok = List.filter_map (fun i -> Result.to_option i.outcome) invs in
  let n = List.length ok in
  let sum f = List.fold_left (fun a (r : Child.result) -> a +. f r) 0.0 ok in
  let child_wall = sum (fun r -> r.Child.wall_s) in
  let timed k = sum (fun r -> assoc0 k r.Child.timed) in
  let counts k = List.map (fun (r : Child.result) -> assoc0 k r.Child.counts) ok in
  let fold f = function [] -> 0.0 | x :: xs -> List.fold_left f x xs in
  let cell_steps = float_of_int (Workload.ncells s.w * Workload.steps s.w * n) in
  let flops, bytes = s.cost in
  let ionic =
    match s.w.Workload.shape with
    | Workload.Cells _ -> Some (timed "sim.compute_s")
    | Workload.Tissue _ ->
        (* only the trace separates the ionic stage inside a tissue step *)
        if List.exists (fun (r : Child.result) -> r.Child.traced <> []) ok then
          Some (sum (fun r -> assoc0 "tissue.ionic_s" r.Child.traced))
        else None
  in
  let keys f =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst (f r)) ok)
  in
  [
    ("wall_s", rep_wall);
    ("setup_s", sum (fun r -> r.Child.setup_s));
    ("cell_steps_per_s", cell_steps /. sum (fun r -> r.Child.loop_s));
    ("peak_rss_mb", fold Float.max (List.map (fun (r : Child.result) -> r.Child.rss_mb) ok));
    ("fail_frac", float_of_int (List.length invs - n) /. float_of_int (List.length invs));
    ("child_wall_s", child_wall);
  ]
  @ List.map (fun k -> (k, timed k)) (keys (fun r -> r.Child.timed))
  @ [
      ("codegen.kernel_ops", fold Float.max (counts "codegen.kernel_ops"));
      ("codegen.spec_kernel_ops", fold Float.max (counts "codegen.spec_kernel_ops"));
      ("exec.native_hits", fold ( +. ) (counts "exec.native_hits"));
      ("exec.native_misses", fold ( +. ) (counts "exec.native_misses"));
      ("sim.step_p50_us", if n = 0 then 0.0 else Perf.Stats.median (counts "sim.step_p50_us"));
      ("sim.step_p99_us", fold Float.max (counts "sim.step_p99_us"));
      ("obs.checkpoints", fold ( +. ) (counts "obs.checkpoints"));
      ("obs.checkpoint_bytes", fold ( +. ) (counts "obs.checkpoint_bytes"));
      ( "proc.overhead_s",
        List.fold_left
          (fun a i ->
            match i.outcome with Ok r -> a +. (i.inv_wall -. r.Child.wall_s) | Error _ -> a)
          0.0 invs );
      ( "bench.unaccounted_frac",
        (child_wall -. sum (fun r -> List.fold_left (fun a (_, v) -> a +. v) 0.0 r.Child.timed))
        /. child_wall );
      ("exec.flops_per_cell_step", flops);
      ("exec.bytes_per_cell_step", bytes);
    ]
  @ (match ionic with
    | Some t -> [ ("exec.gflops", flops *. cell_steps /. t /. 1e9) ]
    | None -> [])
  @ List.map (fun k -> (k, sum (fun r -> assoc0 k r.Child.traced))) (keys (fun r -> r.Child.traced))

let rep_counter = ref 0

(** Run one rep of [s] (its invocations back to back under a fresh
    cache root) and record it; [trace] makes it the traced rep. *)
let rep ~(exe : string) ~(work : string) ?trace (s : session) : unit =
  incr rep_counter;
  let root = Filename.concat work (Printf.sprintf "rep-%d-%d" (Unix.getpid ()) !rep_counter) in
  List.iter (fun d -> mkdir_p (Filename.concat root d)) [ "tmp"; "cache" ];
  let args =
    [ "child"; "--workload"; s.w.Workload.name; "--variant"; string_of_int s.variant ]
    @ (if s.smoke then [ "--smoke" ] else [])
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let check (i : invocation) =
    match (i.outcome, s.reference) with
    | Error _, _ -> i
    | Ok _, Error e -> { i with outcome = Error ("no reference: " ^ e) }
    | Ok r, Ok reference -> (
        match Oracle.check ~engine:s.w.Workload.engine reference r.Child.answer with
        | Ok () -> i
        | Error e -> { i with outcome = Error ("wrong answer: " ^ e) })
  in
  let t0 = Child.now () in
  let invs = List.init s.w.Workload.invocations (fun _ -> check (spawn ~exe ~root args)) in
  let rep_wall = Child.now () -. t0 in
  rm_rf root;
  List.iter
    (fun i ->
      s.attempted <- s.attempted + 1;
      match i.outcome with
      | Ok _ -> ()
      | Error e ->
          s.failures <- e :: s.failures;
          Printf.eprintf "# %s: invocation failed: %s\n%!" s.w.Workload.name e)
    invs;
  let x = sample s ~rep_wall invs in
  match trace with
  | None -> s.reps <- s.reps @ [ x ]
  | Some _ ->
      let untraced = List.map (assoc0 "child_wall_s") s.reps in
      let overhead =
        if untraced = [] then []
        else
          let base = Perf.Stats.median untraced in
          [ ("trace.overhead_frac", (assoc0 "child_wall_s" x -. base) /. base) ]
      in
      s.traced <- Some (x @ overhead)

let trace_file ~(work : string) (s : session) : string =
  let dir = Filename.concat work "traces" in
  mkdir_p dir;
  Filename.concat dir (s.w.Workload.name ^ ".json")

(* -- statistics and reports ------------------------------------------- *)

type stat = { median : float; q1 : float; q3 : float; n : int; samples : float list }

let stat (xs : float list) : stat =
  {
    median = Perf.Stats.median xs;
    q1 = Perf.Stats.quantile xs 0.25;
    q3 = Perf.Stats.quantile xs 0.75;
    n = List.length xs;
    samples = xs;
  }

(** Every reported metric of a session: end-to-end ones over the
    untraced reps; per-layer ones over the untraced reps when they
    measure it, else from the traced rep. *)
let stats (s : session) : (string * string * stat) list =
  let from_reps k = List.filter_map (List.assoc_opt k) s.reps in
  let metric (k, unit_) =
    match from_reps k with
    | _ :: _ as xs -> Some (k, unit_, stat xs)
    | [] ->
        Option.bind s.traced (fun t ->
            Option.map (fun v -> (k, unit_, stat [ v ])) (List.assoc_opt k t))
  in
  List.filter_map metric
    (List.map (fun (d : Metrics.def) -> (d.Metrics.name, d.Metrics.unit_)) Metrics.end_to_end
    @ Metrics.per_layer @ Metrics.traced)

let print_report (sessions : session list) : unit =
  Printf.printf "%-18s %-26s %-8s %14s %14s %14s %3s\n" "workload" "metric" "unit"
    "median" "q1" "q3" "n";
  List.iter
    (fun s ->
      List.iter
        (fun (k, unit_, st) ->
          Printf.printf "%-18s %-26s %-8s %14.6g %14.6g %14.6g %3d\n" s.w.Workload.name k
            unit_ st.median st.q1 st.q3 st.n)
        (stats s);
      Printf.printf "%-18s %-26s %-8s %14d of %d invocations\n" s.w.Workload.name "failed"
        "count" (List.length s.failures) s.attempted)
    sessions

let to_json ~(seed : int) ~(reps : int) (sessions : session list) : Obs.Json.t =
  let open Obs.Json in
  let num x = Num x in
  Obj
    [
      ("benchmark", Str "limpetmlir-e2e");
      ("seed", Num (float_of_int seed));
      ("reps", Num (float_of_int reps));
      ( "host",
        Obj
          [
            ("ocaml", Str Sys.ocaml_version);
            ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
            ( "cc",
              Str
                (match Exec.Native.toolchain () with
                | Some tc -> tc.Exec.Native.id
                | None -> "unavailable") );
          ] );
      ( "workloads",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", Str s.w.Workload.name);
                   ("model", Str s.w.Workload.model);
                   ("dt_ms", Num (Workload.dt ~variant:s.variant));
                   ("attempted", Num (float_of_int s.attempted));
                   ("failed", Num (float_of_int (List.length s.failures)));
                   ( "metrics",
                     Arr
                       (List.map
                          (fun (k, unit_, st) ->
                            Obj
                              [
                                ("name", Str k);
                                ("unit", Str unit_);
                                ("median", Num st.median);
                                ("q1", Num st.q1);
                                ("q3", Num st.q3);
                                ("n", Num (float_of_int st.n));
                                ("samples", Arr (List.map num st.samples));
                              ])
                          (stats s)) );
                 ])
             sessions) );
    ]

(* -- entry points ----------------------------------------------------- *)

(** [run]: every workload, [reps] untraced reps round-robin, then one
    traced rep each. *)
let run ~(exe : string) ~(work : string) ~(refs : string) ~(smoke : bool)
    ~(seed : int) ~(reps : int) : session list =
  let variant = Workload.variant ~seed in
  let sessions =
    List.map
      (prepare ~smoke ~refs ~variant)
      (if smoke then Workload.smoke else Workload.full)
  in
  for i = 1 to reps do
    List.iter
      (fun s ->
        Printf.eprintf "# rep %d/%d %s\n%!" i reps s.w.Workload.name;
        rep ~exe ~work s)
      sessions
  done;
  List.iter
    (fun s ->
      Printf.eprintf "# traced rep %s\n%!" s.w.Workload.name;
      rep ~exe ~work ~trace:(trace_file ~work s) s)
    sessions;
  sessions

(** [measure]: one workload, at least three untraced reps and as many
    more as fit in [seconds], plus the traced rep when [trace]; prints
    the result line. *)
let measure ~(exe : string) ~(work : string) ~(refs : string) (w : Workload.t)
    ~(seed : int) ~(seconds : float) ~(trace : bool) : unit =
  let s = prepare ~smoke:false ~refs w ~variant:(Workload.variant ~seed) in
  let t0 = Child.now () in
  let fits () =
    let n = float_of_int (List.length s.reps) and e = Child.now () -. t0 in
    e +. (e /. n) <= seconds
  in
  (* the host's rep-to-rep noise is large: a run's value is the median
     of at least three reps *)
  while List.length s.reps < 3 || fits () do
    rep ~exe ~work s
  done;
  if trace then rep ~exe ~work ~trace:(trace_file ~work s) s;
  let reported =
    if trace then Metrics.per_layer @ Metrics.traced
    else
      List.filter_map
        (fun (d : Metrics.def) ->
          (* failures are reported through [failed], not as a metric *)
          if d.Metrics.name = "fail_frac" then None else Some (d.Metrics.name, d.Metrics.unit_))
        Metrics.end_to_end
  in
  let all = stats s in
  let open Obs.Json in
  let metrics =
    List.map
      (fun (k, unit_) ->
        let v =
          match List.find_opt (fun (k', _, _) -> k' = k) all with
          | Some (_, _, st) -> st.median
          | None -> 0.0
        in
        (k, Obj [ ("value", Num v); ("unit", Str unit_) ]))
      reported
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (s.failures = []));
            ("attempted", Num (float_of_int s.attempted));
            ("failed", Num (float_of_int (List.length s.failures)));
            ("metrics", Obj metrics);
          ]))

(** Recompute every committed tissue reference on [interp]. *)
let regen_references ~(refs : string) : unit =
  mkdir_p refs;
  List.iter
    (fun (w : Workload.t) ->
      match w.Workload.shape with
      | Workload.Cells _ -> ()
      | Workload.Tissue _ ->
          Array.iteri
            (fun variant dt ->
              let path = Oracle.reference_file ~dir:refs w ~variant in
              Printf.eprintf "# %s (interp, dt=%g)\n%!" path dt;
              Oracle.write_reference path w ~dt (Oracle.tissue_reference w ~dt))
            Workload.dts)
    Workload.full
