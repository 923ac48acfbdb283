(** Trace exporters over a {!Tracer.snapshot}: Chrome trace-event JSON
    (Perfetto / chrome://tracing), a human-readable summary table, and
    Prometheus-style text. *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total_us : float;
  ss_min_us : float;
  ss_max_us : float;
}

type build_info = {
  bi_version : string;  (** limpetmlir release *)
  bi_ocaml : string;  (** [Sys.ocaml_version] *)
  bi_pipeline : string;  (** {!Codegen.Cache.pipeline_id} *)
  bi_toolchain : string;
      (** native C toolchain identity, or ["unavailable"] *)
}
(** Build identity rendered as the [limpetmlir_build_info] gauge and in
    the summary header.  Filled by the CLI (obs cannot see codegen /
    exec), rendered here — the same split as {!tissue_stats}. *)

type checkpoint_stats = {
  cp_last_step : int;  (** step of the newest checkpoint (-1 = none) *)
  cp_writes : int;
  cp_bytes : int;  (** cumulative serialized bytes *)
  cp_write_ms : float;  (** cumulative write (+ verify) milliseconds *)
  cp_verify_failures : int;  (** re-read digest verifications that failed *)
}
(** Flight-recorder counters filled by {!Recorder.stats} and rendered by
    {!prometheus} as the [limpetmlir_checkpoint_*] families. *)

type progress = {
  pg_model : string;
  pg_step : int;  (** steps completed *)
  pg_steps_total : int;  (** planned steps (0 = unbounded) *)
  pg_time_ms : float;  (** simulation clock *)
}
(** Step progress of a live run ([limpetmlir_sim_*] gauge families). *)

val summarize : Tracer.snapshot -> span_stat list
(** Per-name duration statistics over matched Begin/End pairs, sorted by
    total time descending. *)

val chrome : Tracer.snapshot -> string
(** Chrome trace-event JSON: ["B"]/["E"] span pairs with [tid] = Domain
    id (one track per Domain), ["C"] counter events, ["M"] metadata
    naming the tracks. *)

val validate_chrome : string -> (int, string) result
(** Check a Chrome trace: valid JSON, span events complete, B/E balanced
    per tid, per-tid timestamps monotonic.  [Ok n] returns the number of
    span events. *)

val summary :
  ?health:Health.snapshot -> ?build:build_info -> Tracer.snapshot -> string
(** Human-readable table: spans (count/total/mean/min/max), counters,
    dropped-event note, plus a per-variable health section when
    [?health] is given.  [?build] prepends the build-identity lines
    (version, OCaml, pass-pipeline id, native toolchain). *)

val prom_value : float -> string
(** Render a sample value for the text exposition format: canonical
    [NaN] / [+Inf] / [-Inf] for nonfinite values (never the lowercase
    spellings [%g] would print), [%g] otherwise. *)

type tissue_stats = {
  tt_model : string;
  tt_cells : int;  (** tissue size (real cells) *)
  tt_activated : int;  (** cells whose upstroke was detected *)
  tt_reactivated : int;  (** cells re-activated after full repolarization *)
  tt_block_trips : int;  (** conduction-block detector trips *)
  tt_cv : float option;  (** measured conduction velocity, cm/ms *)
}
(** Tissue-scale counters filled in by the monodomain engine
    ({!Tissue.Monodomain.stats}) and rendered by {!prometheus} as the
    [limpetmlir_tissue_*] families. *)

val prometheus :
  ?health:Health.snapshot ->
  ?tissue:tissue_stats ->
  ?build:build_info ->
  ?checkpoint:checkpoint_stats ->
  ?progress:progress ->
  Tracer.snapshot ->
  string
(** Prometheus text exposition: span totals and counts, counters, and —
    when [?health] is given — the [limpetmlir_health_*] metric families
    (steps sampled, per-variable sample/NaN/Inf/range counters,
    min/mean/max state values, tripped
    and unhealthy flags).  [?tissue] appends the [limpetmlir_tissue_*]
    families: cell count, activated cells, activation coverage,
    reactivated cells, conduction-block trips and measured conduction
    velocity (NaN until both probes activated).  [?build] appends the
    [limpetmlir_build_info] gauge (constant 1, identity in the labels),
    [?checkpoint] the [limpetmlir_checkpoint_*] flight-recorder
    families, and [?progress] the [limpetmlir_sim_*] step-progress
    families.  Everything emitted passes {!validate_prometheus}. *)

val validate_prometheus : string -> (int, string) result
(** Check a Prometheus text exposition: [# HELP]/[# TYPE] pairing and
    uniqueness, metric-name and label-name charsets, label-value
    escaping (only backslash, double quote and [n]), decimal or
    canonical-nonfinite
    sample values, optional integer timestamps, no family interleaving,
    trailing newline.  [Ok n] returns the number of sample lines. *)
