(** Low-overhead runtime tracing: spans and counters.

    The NMODL/Caliper-style telemetry core of the observability
    subsystem.  Design constraints, in order:

    - {b near-zero cost when disabled}: every recording entry point is a
      single atomic flag load and a conditional branch — no allocation,
      no clock read, no table lookup on the disabled path, so
      instrumentation can live inside the simulation hot loop;
    - {b contention-free when enabled}: each Domain records into its own
      ring buffer (reached through domain-local storage), so the
      parallel compute stage never takes a lock or bounces a cache line
      to trace; buffers merge only at {!snapshot} time;
    - {b bounded memory}: rings overwrite their oldest events once full
      and count what they dropped; counters are per-Domain
      accumulator cells (one float bump per hit, never an event), so
      hot counters cannot flood the ring.

    Timestamps are microseconds relative to the {!enable} call and are
    clamped per ring to be non-decreasing, so every per-Domain track is
    monotonic by construction.  Recording never touches simulation
    state: traced runs are bitwise identical to untraced runs (a
    differential test over the whole model catalogue enforces this). *)

type kind = Begin | End

type event = {
  ev_ts : float;  (** microseconds since {!enable} *)
  ev_dom : int;  (** Domain id — the trace track ("tid") *)
  ev_kind : kind;
  ev_name : string;
}

(* A ring stores its events unboxed, one array per field, so recording
   allocates nothing: no minor collection can start inside a recording
   call, and a minor collection has no young events to promote. *)
type ring = {
  r_dom : int;
  r_cap : int;
  r_ts : floatarray;  (** slot timestamps *)
  r_kind : Bytes.t;  (** slot kinds: ['B'] or ['E'] *)
  r_name : string array;  (** slot names *)
  mutable r_n : int;  (** total events ever written *)
  mutable r_i : int;  (** next slot, [r_n mod r_cap] without the division *)
  r_last : floatarray;
      (** [[| last timestamp issued on this ring |]]; a floatarray cell,
          so updating it does not allocate *)
  r_counters : (string, float ref) Hashtbl.t;
}

(* -- global state ----------------------------------------------------- *)

let on = Atomic.make false
let default_capacity = 1 lsl 16
let capacity = ref default_capacity

(* Registration of rings is rare (once per domain); a mutex there is
   fine.  Recording touches only the caller's own ring. *)
let reg_lock = Mutex.create ()
let rings : ring list ref = ref []

(* Epoch of the current tracing session; timestamps are relative to it. *)
let t0 = Atomic.make 0.0

external monotonic_ns : unit -> int = "limpet_obs_monotonic_ns" [@@noalloc]

let[@inline] now_abs_us () = float_of_int (monotonic_ns ()) *. 1e-3

let make_ring () : ring =
  let r =
    {
      r_dom = (Domain.self () :> int);
      r_cap = !capacity;
      r_ts = Float.Array.make !capacity 0.0;
      r_kind = Bytes.make !capacity 'E';
      r_name = Array.make !capacity "";
      r_n = 0;
      r_i = 0;
      r_last = Float.Array.make 1 0.0;
      r_counters = Hashtbl.create 16;
    }
  in
  Mutex.lock reg_lock;
  rings := r :: !rings;
  Mutex.unlock reg_lock;
  r

let ring_key : ring Domain.DLS.key = Domain.DLS.new_key make_ring
let my_ring () : ring = Domain.DLS.get ring_key

let clear_ring (r : ring) : unit =
  Array.fill r.r_name 0 r.r_cap "";
  r.r_n <- 0;
  r.r_i <- 0;
  Float.Array.set r.r_last 0 0.0;
  Hashtbl.reset r.r_counters

(* -- control ---------------------------------------------------------- *)

let enabled () = Atomic.get on

(* Rings persist across sessions (worker domains cache theirs in
   domain-local storage), so reset clears contents rather than dropping
   rings.  Only call while no other domain is recording. *)
let reset () =
  Mutex.lock reg_lock;
  let rs = !rings in
  Mutex.unlock reg_lock;
  List.iter clear_ring rs

let enable () =
  reset ();
  Atomic.set t0 (now_abs_us ());
  Atomic.set on true

let disable () = Atomic.set on false

let set_capacity (n : int) : unit =
  if n < 16 then invalid_arg "Tracer.set_capacity: too small";
  if !rings <> [] then
    invalid_arg "Tracer.set_capacity: rings already exist (set it first)";
  capacity := n

(* -- recording -------------------------------------------------------- *)

(* Per-ring clock: clamping to the last issued value keeps every
   per-Domain track non-decreasing whatever the clock does. *)
let[@inline] ring_now (r : ring) : float =
  let t = now_abs_us () -. Atomic.get t0 in
  let last = Float.Array.get r.r_last 0 in
  let t = if t < last then last else t in
  Float.Array.set r.r_last 0 t;
  t

let emit (k : kind) (name : string) : unit =
  let r = my_ring () in
  let i = r.r_i in
  Float.Array.set r.r_ts i (ring_now r);
  Bytes.set r.r_kind i (match k with Begin -> 'B' | End -> 'E');
  r.r_name.(i) <- name;
  r.r_i <- (if i + 1 = r.r_cap then 0 else i + 1);
  r.r_n <- r.r_n + 1

(* The event in slot [i] of a ring (or of a copy of its arrays). *)
let slot_event (r : ring) ts kind name (i : int) : event =
  {
    ev_ts = Float.Array.get ts i;
    ev_dom = r.r_dom;
    ev_kind = (if Bytes.get kind i = 'B' then Begin else End);
    ev_name = name.(i);
  }

let span_begin (name : string) : unit =
  if Atomic.get on then emit Begin name

let span_end (name : string) : unit =
  if Atomic.get on then emit End name

let with_span (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get on) then f ()
  else begin
    emit Begin name;
    match f () with
    | v ->
        if Atomic.get on then emit End name;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if Atomic.get on then emit End name;
        Printexc.raise_with_backtrace e bt
  end

let count (name : string) (v : float) : unit =
  if Atomic.get on then begin
    let r = my_ring () in
    match Hashtbl.find_opt r.r_counters name with
    | Some cell -> cell := !cell +. v
    | None -> Hashtbl.add r.r_counters name (ref v)
  end

(* -- snapshot --------------------------------------------------------- *)

type snapshot = {
  events : event list;
      (** balanced and globally sorted by timestamp (per-Domain order
          preserved for equal stamps) *)
  counters : (string * float) list;  (** summed across domains, sorted *)
  dropped : int;  (** events lost to ring overwrite, all domains *)
}

(* Events of one ring, oldest first (ring order). *)
let ring_events (r : ring) : event list =
  let n = r.r_n and cap = r.r_cap in
  let first = if n > cap then n - cap else 0 in
  let out = ref [] in
  for k = n - 1 downto first do
    out := slot_event r r.r_ts r.r_kind r.r_name (k mod cap) :: !out
  done;
  !out

(* Balance one domain's event stream: drop End events with no open span
   (their Begin was overwritten, or tracing enabled mid-span) and close
   spans still open at snapshot time with a synthetic End at the last
   timestamp seen.  Exporters can then assume well-nested B/E pairs. *)
let balance (evs : event list) : event list =
  let last_ts = List.fold_left (fun acc e -> Float.max acc e.ev_ts) 0.0 evs in
  let rec go evs stack acc =
    match evs with
    | [] ->
        List.fold_left
          (fun acc (b : event) ->
            { b with ev_ts = last_ts; ev_kind = End } :: acc)
          acc stack
    | e :: rest -> (
        match e.ev_kind with
        | Begin -> go rest (e :: stack) (e :: acc)
        | End -> (
            match stack with
            | [] -> go rest stack acc  (* orphan End: drop *)
            | _ :: stack' -> go rest stack' (e :: acc)))
  in
  List.rev (go evs [] [])

(* Snapshot-stable tail of one ring under concurrent writers.  The
   writer protocol is: store the event's fields, then bump [r_n].  We
   read [r_n] (n0), copy the slot arrays, and read [r_n] again (n1).
   Any slot a writer touched during the copy belongs to an event index
   in [n0, n1] (index n1 may be mid-write); a slot holding event k is
   only overwritten by event k + cap, so indices k in
   [max(0, n1 - cap + 1), n0) are provably stable — both counter reads
   happened after their write and before any overwrite could start.
   Concurrency can shrink the usable window (a fast writer lapping the
   ring drops it to empty) but never hand us a torn or misordered
   event. *)
let ring_tail (r : ring) ~(limit : int) : event list =
  let n0 = r.r_n in
  let ts = Float.Array.copy r.r_ts
  and kind = Bytes.copy r.r_kind
  and name = Array.copy r.r_name in
  let n1 = r.r_n in
  let cap = r.r_cap in
  let lo = max 0 (max (n1 - cap + 1) (n0 - limit)) in
  let out = ref [] in
  for k = n0 - 1 downto lo do
    out := slot_event r ts kind name (k mod cap) :: !out
  done;
  (* belt and braces for counter staleness under the relaxed memory
     model: keep only the longest timestamp-monotonic suffix, so the
     published tail is monotonic per track no matter what we raced *)
  match List.rev !out with
  | [] -> []
  | newest :: older ->
      let rec keep acc bound = function
        | e :: rest when e.ev_ts <= bound -> keep (e :: acc) e.ev_ts rest
        | _ -> acc
      in
      keep [ newest ] newest.ev_ts older

let tail ?(limit = 256) () : event list =
  if limit <= 0 then []
  else begin
    Mutex.lock reg_lock;
    let rs = !rings in
    Mutex.unlock reg_lock;
    let per_dom = List.map (fun r -> balance (ring_tail r ~limit)) rs in
    let seqd =
      List.concat_map
        (fun evs -> List.mapi (fun i e -> (e.ev_ts, e.ev_dom, i, e)) evs)
        per_dom
    in
    let merged =
      List.sort compare seqd |> List.map (fun (_, _, _, e) -> e)
    in
    (* global cap: drop the oldest, keep whole per-domain suffixes is not
       required — balance already ran per domain, and dropping only
       Begin-side events cannot unbalance a list that gets re-balanced by
       consumers; to keep the "always balanced" contract we re-balance
       per domain after the cut *)
    let n = List.length merged in
    let cut =
      if n <= limit then merged
      else
        List.filteri (fun i _ -> i >= n - limit) merged
    in
    if List.length cut = n then cut
    else
      let by_dom : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun e ->
          match Hashtbl.find_opt by_dom e.ev_dom with
          | Some l -> l := e :: !l
          | None -> Hashtbl.add by_dom e.ev_dom (ref [ e ]))
        cut;
      let rebalanced =
        Hashtbl.fold
          (fun _ l acc -> balance (List.rev !l) :: acc)
          by_dom []
      in
      let seqd =
        List.concat_map
          (fun evs -> List.mapi (fun i e -> (e.ev_ts, e.ev_dom, i, e)) evs)
          rebalanced
      in
      List.sort compare seqd |> List.map (fun (_, _, _, e) -> e)
  end

let snapshot () : snapshot =
  Mutex.lock reg_lock;
  let rs = !rings in
  Mutex.unlock reg_lock;
  let per_dom = List.map (fun r -> balance (ring_events r)) rs in
  (* stable merge: sort by timestamp, keeping each domain's order (sort
     keys extended with the per-domain sequence number) *)
  let seqd =
    List.concat_map
      (fun evs -> List.mapi (fun i e -> (e.ev_ts, e.ev_dom, i, e)) evs)
      per_dom
  in
  let events =
    List.sort compare seqd |> List.map (fun (_, _, _, e) -> e)
  in
  let ctr : (string, float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun name cell ->
          match Hashtbl.find_opt ctr name with
          | Some c -> c := !c +. !cell
          | None -> Hashtbl.add ctr name (ref !cell))
        r.r_counters)
    rs;
  {
    events;
    counters =
      Hashtbl.fold (fun k c acc -> (k, !c) :: acc) ctr []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    dropped =
      List.fold_left (fun acc r -> acc + max 0 (r.r_n - r.r_cap)) 0 rs;
  }
