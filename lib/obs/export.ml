(** Trace exporters: Chrome trace-event JSON (Perfetto /
    chrome://tracing), a human-readable summary table, and
    Prometheus-style text.  All three render a {!Tracer.snapshot}, so
    the recording side never knows which format (if any) will consume
    it. *)

(* -- per-span aggregation --------------------------------------------- *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total_us : float;
  ss_min_us : float;
  ss_max_us : float;
}

(** Aggregate matched Begin/End pairs into per-name duration stats.
    Snapshots are balanced per domain, so a simple per-domain stack walk
    pairs every End with its innermost open Begin. *)
let summarize (s : Tracer.snapshot) : span_stat list =
  let stats : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks dom s;
        s
  in
  List.iter
    (fun (e : Tracer.event) ->
      let st = stack e.Tracer.ev_dom in
      match e.Tracer.ev_kind with
      | Tracer.Begin -> st := (e.Tracer.ev_name, e.Tracer.ev_ts) :: !st
      | Tracer.End -> (
          match !st with
          | [] -> ()
          | (name, t_begin) :: rest ->
              st := rest;
              let dur = e.Tracer.ev_ts -. t_begin in
              (match Hashtbl.find_opt stats name with
              | Some r ->
                  r :=
                    {
                      !r with
                      ss_count = !r.ss_count + 1;
                      ss_total_us = !r.ss_total_us +. dur;
                      ss_min_us = Float.min !r.ss_min_us dur;
                      ss_max_us = Float.max !r.ss_max_us dur;
                    }
              | None ->
                  Hashtbl.add stats name
                    (ref
                       {
                         ss_name = name;
                         ss_count = 1;
                         ss_total_us = dur;
                         ss_min_us = dur;
                         ss_max_us = dur;
                       }))))
    s.Tracer.events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.sort (fun a b -> compare b.ss_total_us a.ss_total_us)

(* -- Chrome trace-event JSON ------------------------------------------ *)

(** Chrome trace-event format (the JSON Array Format wrapped in an
    object, as Perfetto and chrome://tracing load it): one ["B"]/["E"]
    pair per span with [tid] = Domain id (per-Domain tracks), one ["C"]
    event per counter, and ["M"] metadata events naming the tracks. *)
let chrome (s : Tracer.snapshot) : string =
  let open Json in
  let doms =
    List.sort_uniq compare
      (List.map (fun (e : Tracer.event) -> e.Tracer.ev_dom) s.Tracer.events)
  in
  let meta =
    Obj
      [
        ("name", Str "process_name"); ("ph", Str "M"); ("pid", Num 1.0);
        ("tid", Num 0.0);
        ("args", Obj [ ("name", Str "limpetmlir") ]);
      ]
    :: List.map
         (fun d ->
           Obj
             [
               ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Num 1.0);
               ("tid", Num (float_of_int d));
               ("args", Obj [ ("name", Str (Printf.sprintf "domain-%d" d)) ]);
             ])
         doms
  in
  let spans =
    List.map
      (fun (e : Tracer.event) ->
        Obj
          [
            ("name", Str e.Tracer.ev_name);
            ( "ph",
              Str (match e.Tracer.ev_kind with Tracer.Begin -> "B" | Tracer.End -> "E") );
            ("ts", Num e.Tracer.ev_ts);
            ("pid", Num 1.0);
            ("tid", Num (float_of_int e.Tracer.ev_dom));
          ])
      s.Tracer.events
  in
  let last_ts =
    List.fold_left
      (fun acc (e : Tracer.event) -> Float.max acc e.Tracer.ev_ts)
      0.0 s.Tracer.events
  in
  let counters =
    List.map
      (fun (name, v) ->
        Obj
          [
            ("name", Str name); ("ph", Str "C"); ("ts", Num last_ts);
            ("pid", Num 1.0); ("tid", Num 0.0);
            ("args", Obj [ ("value", Num v) ]);
          ])
      s.Tracer.counters
  in
  to_string
    (Obj
       [
         ("traceEvents", Arr (meta @ spans @ counters));
         ("displayTimeUnit", Str "ms");
         ("otherData", Obj [ ("dropped", Num (float_of_int s.Tracer.dropped)) ]);
       ])

(** Validate a Chrome trace produced by {!chrome} (also used by the
    round-trip tests and the CI smoke): parses as JSON, every span event
    carries name/ph/ts/pid/tid, B/E nest properly per tid, and per-tid
    timestamps are monotonic.  Returns the number of B/E events. *)
let validate_chrome (text : string) : (int, string) result =
  let open Json in
  let ( let* ) r f = Result.bind r f in
  let* v = parse text in
  let* evs =
    match member "traceEvents" v |> Option.map to_list with
    | Some (Some evs) -> Ok evs
    | _ -> Error "no traceEvents array"
  in
  let depth : (float, int) Hashtbl.t = Hashtbl.create 8 in
  let last : (float, float) Hashtbl.t = Hashtbl.create 8 in
  let nspan = ref 0 in
  let rec go = function
    | [] ->
        let unbalanced = Hashtbl.fold (fun _ d acc -> acc + d) depth 0 in
        if unbalanced <> 0 then
          Error (Printf.sprintf "%d unbalanced span(s)" unbalanced)
        else Ok !nspan
    | e :: rest -> (
        match member "ph" e |> Option.map to_str with
        | Some (Some ("M" | "C")) -> go rest
        | Some (Some (("B" | "E") as ph)) -> (
            match
              ( member "name" e |> Option.map to_str,
                member "ts" e |> Option.map to_float,
                member "tid" e |> Option.map to_float )
            with
            | Some (Some _), Some (Some ts), Some (Some tid) ->
                incr nspan;
                let prev =
                  Option.value ~default:Float.neg_infinity
                    (Hashtbl.find_opt last tid)
                in
                if ts < prev then
                  Error (Printf.sprintf "non-monotonic ts on tid %g" tid)
                else begin
                  Hashtbl.replace last tid ts;
                  let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
                  let d' = if ph = "B" then d + 1 else d - 1 in
                  if d' < 0 then
                    Error (Printf.sprintf "E without B on tid %g" tid)
                  else begin
                    Hashtbl.replace depth tid d';
                    go rest
                  end
                end
            | _ -> Error "span event missing name/ts/tid")
        | _ -> Error "event missing ph")
  in
  go evs

(* -- build identity ---------------------------------------------------- *)

(* Who produced these numbers.  The CLI fills this in (obs cannot depend
   on codegen or exec); the exposition renders it as the conventional
   constant-1 info gauge, and the summary as a header line. *)
type build_info = {
  bi_version : string;
  bi_ocaml : string;
  bi_pipeline : string;
  bi_toolchain : string;
}

(* Flight-recorder counters ({!Recorder.stats} fills this record). *)
type checkpoint_stats = {
  cp_last_step : int;
  cp_writes : int;
  cp_bytes : int;
  cp_write_ms : float;
  cp_verify_failures : int;
}

(* Step progress of a live run. *)
type progress = {
  pg_model : string;
  pg_step : int;
  pg_steps_total : int;
  pg_time_ms : float;
}

(* -- human-readable summary ------------------------------------------- *)

let summary ?(health : Health.snapshot option) ?(build : build_info option)
    (s : Tracer.snapshot) : string =
  let b = Buffer.create 1024 in
  Option.iter
    (fun bi ->
      Buffer.add_string b
        (Printf.sprintf
           "build: limpetmlir %s (ocaml %s, pipeline %s, toolchain %s)\n"
           bi.bi_version bi.bi_ocaml bi.bi_pipeline bi.bi_toolchain))
    build;
  let spans = summarize s in
  if spans <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-32s %8s %12s %12s %12s %12s\n" "span" "count"
         "total ms" "mean us" "min us" "max us");
    List.iter
      (fun ss ->
        Buffer.add_string b
          (Printf.sprintf "%-32s %8d %12.3f %12.1f %12.1f %12.1f\n" ss.ss_name
             ss.ss_count (ss.ss_total_us /. 1e3)
             (ss.ss_total_us /. float_of_int ss.ss_count)
             ss.ss_min_us ss.ss_max_us))
      spans
  end;
  if s.Tracer.counters <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "\n%-32s %16s\n" "counter" "value");
    List.iter
      (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "%-32s %16.0f\n" name v))
      s.Tracer.counters
  end;
  if s.Tracer.dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "\n(%d event(s) dropped to ring overwrite)\n"
         s.Tracer.dropped);
  Option.iter
    (fun (h : Health.snapshot) ->
      let nan, inf, range = Health.totals h in
      Buffer.add_string b
        (Printf.sprintf
           "\nhealth (%s): %s — %d step(s) sampled, %d NaN, %d Inf, %d range \
            violation(s)\n"
           h.Health.hs_model
           (if h.Health.hs_unhealthy then "UNHEALTHY"
            else if h.Health.hs_tripped then "degraded"
            else "ok")
           h.Health.hs_steps_sampled nan inf range);
      Buffer.add_string b
        (Printf.sprintf "%-24s %10s %12s %12s %12s %6s %6s %6s\n" "variable"
           "samples" "min" "mean" "max" "nan" "inf" "range");
      List.iter
        (fun (vs : Health.var_stat) ->
          Buffer.add_string b
            (Printf.sprintf "%-24s %10d %12g %12g %12g %6d %6d %6d\n"
               (vs.Health.vs_name ^ if vs.Health.vs_gate then " (gate)" else "")
               vs.Health.vs_samples vs.Health.vs_min vs.Health.vs_mean
               vs.Health.vs_max vs.Health.vs_nan vs.Health.vs_inf
               vs.Health.vs_range))
        h.Health.hs_vars;
      List.iter
        (fun tr ->
          Buffer.add_string b
            (Printf.sprintf "trip: %s\n"
               (Printf.sprintf
                  "variable=%s reason=%s cell=%d step=%d value=%g"
                  tr.Health.t_var
                  (Health.reason_name tr.Health.t_reason)
                  tr.Health.t_cell tr.Health.t_step tr.Health.t_value)))
        h.Health.hs_trips)
    health;
  Buffer.contents b

(* -- Prometheus text exposition --------------------------------------- *)

let prom_label (s : string) : string =
  (* label values: escape backslash, quote and newline per the text
     exposition format *)
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Sample values: canonical nonfinite spellings.  [%g] would print
   [nan]/[inf]/[-inf], which Prometheus' Go parser happens to accept but
   OpenMetrics parsers reject; [NaN]/[+Inf]/[-Inf] are the exposition
   format's documented spellings ({!validate_prometheus} enforces them,
   and health statistics legitimately carry NaN when nothing was
   sampled). *)
let prom_value (v : float) : string =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%g" v

let prom_health (b : Buffer.t) (h : Health.snapshot) : unit =
  let model = prom_label h.Health.hs_model in
  let family ~name ~help ~typ emit =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    emit name
  in
  family ~name:"limpetmlir_health_steps_sampled"
    ~help:"Simulation steps sampled by the health monitor."
    ~typ:"counter" (fun name ->
      Buffer.add_string b
        (Printf.sprintf "%s{model=\"%s\"} %d\n" name model
           h.Health.hs_steps_sampled));
  let per_var ~name ~help ~typ (f : Health.var_stat -> string) =
    family ~name ~help ~typ (fun name ->
        List.iter
          (fun (vs : Health.var_stat) ->
            Buffer.add_string b
              (Printf.sprintf "%s{model=\"%s\",var=\"%s\"} %s\n" name model
                 (prom_label vs.Health.vs_name) (f vs)))
          h.Health.hs_vars)
  in
  per_var ~name:"limpetmlir_health_samples"
    ~help:"Finite cell-samples per monitored variable." ~typ:"counter"
    (fun vs -> string_of_int vs.Health.vs_samples);
  per_var ~name:"limpetmlir_health_nan_total"
    ~help:"NaN observations per monitored variable." ~typ:"counter" (fun vs ->
      string_of_int vs.Health.vs_nan);
  per_var ~name:"limpetmlir_health_inf_total"
    ~help:"Infinity observations per monitored variable." ~typ:"counter"
    (fun vs -> string_of_int vs.Health.vs_inf);
  per_var ~name:"limpetmlir_health_range_total"
    ~help:"Range violations (gate outside [0,1], Vm outside the watchdog \
           window) per monitored variable."
    ~typ:"counter" (fun vs -> string_of_int vs.Health.vs_range);
  family ~name:"limpetmlir_health_state"
    ~help:"Streaming per-variable statistics over finite samples."
    ~typ:"gauge" (fun name ->
      List.iter
        (fun (vs : Health.var_stat) ->
          List.iter
            (fun (stat, v) ->
              Buffer.add_string b
                (Printf.sprintf "%s{model=\"%s\",var=\"%s\",stat=\"%s\"} %s\n"
                   name model
                   (prom_label vs.Health.vs_name)
                   stat (prom_value v)))
            [
              ("min", vs.Health.vs_min); ("mean", vs.Health.vs_mean);
              ("max", vs.Health.vs_max);
            ])
        h.Health.hs_vars);
  family ~name:"limpetmlir_health_tripped"
    ~help:"1 when any health watchdog tripped (including gate-range warnings)."
    ~typ:"gauge" (fun name ->
      Buffer.add_string b
        (Printf.sprintf "%s{model=\"%s\"} %d\n" name model
           (if h.Health.hs_tripped then 1 else 0)));
  family ~name:"limpetmlir_health_unhealthy"
    ~help:"1 when a hard watchdog tripped (NaN / Inf / Vm range) — the \
           /healthz state."
    ~typ:"gauge" (fun name ->
      Buffer.add_string b
        (Printf.sprintf "%s{model=\"%s\"} %d\n" name model
           (if h.Health.hs_unhealthy then 1 else 0)))

(* Tissue-scale counters (activation coverage, conduction-block trips,
   measured conduction velocity).  Defined here rather than in the
   tissue library so the exposition layer stays dependency-free: the
   monodomain engine fills this record in, obs renders it. *)
type tissue_stats = {
  tt_model : string;
  tt_cells : int;  (** tissue size (real cells) *)
  tt_activated : int;  (** cells whose upstroke was detected *)
  tt_reactivated : int;  (** cells re-activated after full repolarization *)
  tt_block_trips : int;  (** conduction-block detector trips *)
  tt_cv : float option;  (** measured conduction velocity, cm/ms *)
}

let prom_tissue (b : Buffer.t) (t : tissue_stats) : unit =
  let model = prom_label t.tt_model in
  let family ~name ~help ~typ v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b
      (Printf.sprintf "%s{model=\"%s\"} %s\n" name model v)
  in
  family ~name:"limpetmlir_tissue_cells"
    ~help:"Tissue size in cells." ~typ:"gauge" (string_of_int t.tt_cells);
  family ~name:"limpetmlir_tissue_activated_cells"
    ~help:"Cells whose first upstroke was detected." ~typ:"gauge"
    (string_of_int t.tt_activated);
  family ~name:"limpetmlir_tissue_activation_coverage"
    ~help:"Fraction of cells activated (activated / cells)." ~typ:"gauge"
    (prom_value
       (if t.tt_cells = 0 then Float.nan
        else float_of_int t.tt_activated /. float_of_int t.tt_cells));
  family ~name:"limpetmlir_tissue_reactivated_cells"
    ~help:"Cells re-activated after full repolarization (reentry \
           indicator)."
    ~typ:"gauge"
    (string_of_int t.tt_reactivated);
  family ~name:"limpetmlir_tissue_conduction_block_total"
    ~help:"Conduction-block watchdog trips (no activation past the \
           stimulus site inside the plausibility window)."
    ~typ:"counter"
    (string_of_int t.tt_block_trips);
  family ~name:"limpetmlir_tissue_conduction_velocity_cm_ms"
    ~help:"Measured conduction velocity between the probe cells, cm/ms \
           (NaN until both probes activated)."
    ~typ:"gauge"
    (prom_value (match t.tt_cv with Some cv -> cv | None -> Float.nan))

let prom_build (b : Buffer.t) (bi : build_info) : unit =
  Buffer.add_string b
    "# HELP limpetmlir_build_info Build identity (constant 1; the \
     information is in the labels).\n";
  Buffer.add_string b "# TYPE limpetmlir_build_info gauge\n";
  Buffer.add_string b
    (Printf.sprintf
       "limpetmlir_build_info{version=\"%s\",ocaml=\"%s\",pipeline=\"%s\",\
        toolchain=\"%s\"} 1\n"
       (prom_label bi.bi_version) (prom_label bi.bi_ocaml)
       (prom_label bi.bi_pipeline)
       (prom_label bi.bi_toolchain))

let prom_checkpoint (b : Buffer.t) (c : checkpoint_stats) : unit =
  let family ~name ~help ~typ v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "%s %s\n" name v)
  in
  family ~name:"limpetmlir_checkpoint_last_step"
    ~help:"Step index of the newest checkpoint (-1 before the first \
           write)."
    ~typ:"gauge"
    (string_of_int c.cp_last_step);
  family ~name:"limpetmlir_checkpoint_writes_total"
    ~help:"Checkpoint files written." ~typ:"counter"
    (string_of_int c.cp_writes);
  family ~name:"limpetmlir_checkpoint_bytes_total"
    ~help:"Serialized checkpoint bytes written." ~typ:"counter"
    (string_of_int c.cp_bytes);
  family ~name:"limpetmlir_checkpoint_write_ms_total"
    ~help:"Milliseconds spent writing (and verifying) checkpoints."
    ~typ:"counter"
    (prom_value c.cp_write_ms);
  family ~name:"limpetmlir_checkpoint_digest_verify_failures_total"
    ~help:"Checkpoint re-reads whose content digest failed to verify."
    ~typ:"counter"
    (string_of_int c.cp_verify_failures)

let prom_progress (b : Buffer.t) (p : progress) : unit =
  let model = prom_label p.pg_model in
  let family ~name ~help v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string b (Printf.sprintf "%s{model=\"%s\"} %s\n" name model v)
  in
  family ~name:"limpetmlir_sim_step" ~help:"Simulation steps completed."
    (string_of_int p.pg_step);
  family ~name:"limpetmlir_sim_steps_total"
    ~help:"Planned simulation steps (0 = run until stopped)."
    (string_of_int p.pg_steps_total);
  family ~name:"limpetmlir_sim_time_ms"
    ~help:"Simulation clock, milliseconds."
    (prom_value p.pg_time_ms)

let prometheus ?(health : Health.snapshot option)
    ?(tissue : tissue_stats option) ?(build : build_info option)
    ?(checkpoint : checkpoint_stats option) ?(progress : progress option)
    (s : Tracer.snapshot) : string =
  let b = Buffer.create 1024 in
  let spans = summarize s in
  Buffer.add_string b
    "# HELP limpetmlir_span_us_total Total time in span, microseconds.\n";
  Buffer.add_string b "# TYPE limpetmlir_span_us_total counter\n";
  List.iter
    (fun ss ->
      Buffer.add_string b
        (Printf.sprintf "limpetmlir_span_us_total{span=\"%s\"} %.3f\n"
           (prom_label ss.ss_name) ss.ss_total_us))
    spans;
  Buffer.add_string b "# HELP limpetmlir_span_count Completed span count.\n";
  Buffer.add_string b "# TYPE limpetmlir_span_count counter\n";
  List.iter
    (fun ss ->
      Buffer.add_string b
        (Printf.sprintf "limpetmlir_span_count{span=\"%s\"} %d\n"
           (prom_label ss.ss_name) ss.ss_count))
    spans;
  Buffer.add_string b "# HELP limpetmlir_counter Event counters.\n";
  Buffer.add_string b "# TYPE limpetmlir_counter counter\n";
  List.iter
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "limpetmlir_counter{name=\"%s\"} %s\n"
           (prom_label name) (prom_value v)))
    s.Tracer.counters;
  Option.iter (prom_health b) health;
  Option.iter (prom_tissue b) tissue;
  Option.iter (prom_build b) build;
  Option.iter (prom_checkpoint b) checkpoint;
  Option.iter (prom_progress b) progress;
  Buffer.contents b

(* -- Prometheus exposition validator ---------------------------------- *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_metric_name (s : string) : bool =
  s <> ""
  && (is_name_start s.[0] || s.[0] = ':')
  && String.for_all (fun c -> is_name_char c || c = ':') s

let valid_label_name (s : string) : bool =
  s <> "" && is_name_start s.[0] && String.for_all is_name_char s

(* Sample value token: canonical nonfinite (NaN / +Inf / -Inf) or a
   plain decimal float.  Rejects the lowercase [nan]/[inf] that [%g]
   prints — the regression {!prom_value} guards against. *)
let valid_value (s : string) : bool =
  match s with
  | "NaN" | "+Inf" | "-Inf" | "Inf" -> true
  | "" -> false
  | _ ->
      String.for_all
        (fun c ->
          (c >= '0' && c <= '9')
          || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E')
        s
      && (match float_of_string_opt s with Some _ -> true | None -> false)

(* Parse [{label="value",...}]; returns the index after the closing
   brace or an error. *)
let parse_labels (line : string) (start : int) : (int, string) result =
  let n = String.length line in
  let rec labels i =
    (* label name *)
    let j = ref i in
    while !j < n && is_name_char line.[!j] do incr j done;
    if not (valid_label_name (String.sub line i (!j - i))) then
      Error "bad label name"
    else if !j >= n || line.[!j] <> '=' then Error "expected '=' after label"
    else if !j + 1 >= n || line.[!j + 1] <> '"' then
      Error "label value must be quoted"
    else value (!j + 2)
  and value i =
    (* inside quotes: backslash may only escape a backslash, a double
       quote or [n] *)
    if i >= n then Error "unterminated label value"
    else
      match line.[i] with
      | '"' -> after_value (i + 1)
      | '\\' ->
          if i + 1 < n && (line.[i + 1] = '\\' || line.[i + 1] = '"'
                          || line.[i + 1] = 'n')
          then value (i + 2)
          else Error "bad escape in label value"
      | '\n' -> Error "raw newline in label value"
      | _ -> value (i + 1)
  and after_value i =
    if i >= n then Error "unterminated label set"
    else
      match line.[i] with
      | ',' -> labels (i + 1)
      | '}' -> Ok (i + 1)
      | _ -> Error "expected ',' or '}' after label value"
  in
  if start < n && line.[start] = '}' then Ok (start + 1) else labels start

(** Validate a Prometheus text exposition as produced by {!prometheus}
    (mirrors {!validate_chrome}; used by the round-trip tests and the CI
    serve smoke).  Checks, line by line: [# HELP]/[# TYPE] come in order
    and at most once per family, metric names match
    [[a-zA-Z_:][a-zA-Z0-9_:]*], label names match
    [[a-zA-Z_][a-zA-Z0-9_]*], label values only use the three legal
    escapes, sample values are decimal floats or canonical
    [NaN]/[+Inf]/[-Inf], an optional integer timestamp, and samples of a
    family are not interleaved with other families.  [Ok n] returns the
    number of sample lines. *)
let validate_prometheus (text : string) : (int, string) result =
  let ( let* ) r f = Result.bind r f in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let* lines =
    if text = "" then Ok []
    else if text.[String.length text - 1] <> '\n' then
      Error "missing trailing newline"
    else Ok (String.split_on_char '\n' (String.sub text 0 (String.length text - 1)))
  in
  (* family state: name of the family currently open for samples, plus
     the set of families already closed (to reject interleaving). *)
  let closed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let helped : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let current = ref None in
  let nsamples = ref 0 in
  let close () =
    match !current with
    | Some f ->
        Hashtbl.replace closed f ();
        current := None
    | None -> ()
  in
  let open_family lineno f =
    match !current with
    | Some g when g = f -> Ok ()
    | _ ->
        if Hashtbl.mem closed f then
          err lineno (Printf.sprintf "family %s interleaved" f)
        else begin
          close ();
          current := Some f;
          Ok ()
        end
  in
  let meta_line lineno seen kind rest =
    (* ["# HELP name text"] / ["# TYPE name kind"] *)
    match String.index_opt rest ' ' with
    | None -> err lineno (Printf.sprintf "# %s missing metric name" kind)
    | Some sp ->
        let name = String.sub rest 0 sp in
        if not (valid_metric_name name) then
          err lineno (Printf.sprintf "bad metric name %S" name)
        else if Hashtbl.mem seen name then
          err lineno (Printf.sprintf "duplicate # %s for %s" kind name)
        else begin
          Hashtbl.replace seen name ();
          let* () =
            if kind = "TYPE" then
              if not (Hashtbl.mem helped name) then
                err lineno (Printf.sprintf "# TYPE %s without # HELP" name)
              else
                match String.sub rest (sp + 1) (String.length rest - sp - 1) with
                | "counter" | "gauge" | "histogram" | "summary" | "untyped" ->
                    Ok ()
                | t -> err lineno (Printf.sprintf "bad metric type %S" t)
            else Ok ()
          in
          open_family lineno name
        end
  in
  let sample_line lineno line =
    let n = String.length line in
    let j = ref 0 in
    while !j < n && (is_name_char line.[!j] || line.[!j] = ':') do incr j done;
    let name = String.sub line 0 !j in
    if not (valid_metric_name name) then
      err lineno (Printf.sprintf "bad metric name %S" name)
    else
      let* () =
        if Hashtbl.mem typed name && not (Hashtbl.mem helped name) then
          err lineno (Printf.sprintf "sample for %s before its # HELP" name)
        else Ok ()
      in
      let* after_labels =
        if !j < n && line.[!j] = '{' then
          match parse_labels line (!j + 1) with
          | Ok k -> Ok k
          | Error m -> err lineno m
        else Ok !j
      in
      let rest =
        String.trim (String.sub line after_labels (n - after_labels))
      in
      let* () =
        match String.split_on_char ' ' rest with
        | [ v ] when valid_value v -> Ok ()
        | [ v; ts ] when valid_value v -> (
            match int_of_string_opt ts with
            | Some _ -> Ok ()
            | None -> err lineno (Printf.sprintf "bad timestamp %S" ts))
        | _ -> err lineno (Printf.sprintf "bad sample value %S" rest)
      in
      let* () = open_family lineno name in
      incr nsamples;
      Ok ()
  in
  let rec go lineno = function
    | [] -> Ok !nsamples
    | line :: rest ->
        let* () =
          if line = "" then Ok ()
          else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then
            meta_line lineno helped "HELP"
              (String.sub line 7 (String.length line - 7))
          else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then
            meta_line lineno typed "TYPE"
              (String.sub line 7 (String.length line - 7))
          else if String.length line >= 1 && line.[0] = '#' then Ok ()
            (* plain comment *)
          else sample_line lineno line
        in
        go (lineno + 1) rest
  in
  go 1 lines
