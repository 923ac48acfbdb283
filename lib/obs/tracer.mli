(** Low-overhead runtime tracing: spans and counters.

    Per-Domain lock-free ring buffers with monotonic timestamps; every
    recording entry point costs one atomic flag load when tracing is
    disabled.  Buffers merge only at {!snapshot}, so the parallel
    compute stage records contention-free.  Recording never touches
    simulation state: traced runs are bitwise identical to untraced
    ones. *)

type kind = Begin | End

type event = {
  ev_ts : float;  (** microseconds since {!enable} *)
  ev_dom : int;  (** Domain id — the trace track ("tid") *)
  ev_kind : kind;
  ev_name : string;
}

val enabled : unit -> bool
val enable : unit -> unit
(** Clear all buffers, restart the clock epoch and start recording. *)

val disable : unit -> unit
(** Stop recording; buffered events stay readable via {!snapshot}. *)

val reset : unit -> unit
(** Clear every ring and counter.  Only call while no other
    domain is recording. *)

val set_capacity : int -> unit
(** Per-Domain ring capacity in events (default 65536).  Must be called
    before the first event is recorded.
    @raise Invalid_argument once any ring exists, or below 16. *)

val span_begin : string -> unit
val span_end : string -> unit
val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a Begin/End pair (exception-safe);
    when disabled it is exactly [f ()]. *)

val count : string -> float -> unit
(** Accumulate into a per-Domain counter cell — no event is recorded, so
    counters are safe at any rate. *)

type snapshot = {
  events : event list;
      (** balanced (well-nested B/E per domain) and sorted by timestamp *)
  counters : (string * float) list;  (** summed across domains, sorted *)
  dropped : int;  (** events lost to ring overwrite, all domains *)
}

val snapshot : unit -> snapshot
(** Merge every domain's buffer.  Call while no other domain is
    recording (e.g. after the parallel region returned). *)

val tail : ?limit:int -> unit -> event list
(** The most recent [limit] (default 256) events across all rings,
    balanced per domain, monotonic per track, sorted by timestamp.
    Unlike {!snapshot}, [tail] is safe to call {e while other domains
    are recording} (the crash-dump path runs it mid-flight): each ring
    is copied once, the write counter is re-read after the copy, and
    only the window provably untouched by concurrent overwrites is
    kept — racing writers can shrink the tail but never corrupt it. *)
