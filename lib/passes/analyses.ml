(** Per-pipeline analysis cache.

    Dataflow results ({!Analysis.Interval} states, footprint summaries)
    are pure functions of a function body, but the pipeline mutates
    bodies in place — so results are memoized per function {e name} and
    invalidated whenever a pass reports a change to that function.
    Passes and post-pipeline clients (deep verification, the race
    checker) share one cache instance per
    pipeline run, so e.g. running deep verification right after
    optimization reuses the converged interval facts instead of
    re-solving. *)

type t = {
  intervals : (string, Analysis.Interval.state) Hashtbl.t;
  footprints :
    (string, Analysis.Interval.state * Analysis.Footprint.access list)
    Hashtbl.t;
}

let create () : t =
  { intervals = Hashtbl.create 8; footprints = Hashtbl.create 8 }

(** Converged interval facts for [f], computed at most once per version
    of the body. *)
let interval (t : t) (f : Ir.Func.func) : Analysis.Interval.state =
  let name = f.Ir.Func.f_name in
  match Hashtbl.find_opt t.intervals name with
  | Some st -> st
  | None ->
      let st = Analysis.Interval.analyze_func f in
      Hashtbl.replace t.intervals name st;
      st

(** Footprint summary (and the interval state it was computed on). *)
let footprint (t : t) (f : Ir.Func.func) :
    Analysis.Interval.state * Analysis.Footprint.access list =
  let name = f.Ir.Func.f_name in
  match Hashtbl.find_opt t.footprints name with
  | Some r -> r
  | None ->
      let r = Analysis.Footprint.of_func f in
      Hashtbl.replace t.footprints name r;
      r

(** Drop every cached result for [f] — call after rewriting its body. *)
let invalidate (t : t) (f : Ir.Func.func) : unit =
  Hashtbl.remove t.intervals f.Ir.Func.f_name;
  Hashtbl.remove t.footprints f.Ir.Func.f_name

let clear (t : t) : unit =
  Hashtbl.reset t.intervals;
  Hashtbl.reset t.footprints

(** How many functions currently have a cached interval state (for
    tests asserting cache/invalidation behaviour). *)
let cached_intervals (t : t) : int = Hashtbl.length t.intervals
