(** Numerical-health monitoring: streaming per-state-variable reducers
    and NaN/divergence watchdogs over the driver's state buffers.

    The ionic models this tree generates code for are numerically
    delicate — Rush–Larsen and Sundnes gates must stay inside [0, 1],
    Markov occupancies are explicitly clamped, and a single NaN entering
    a LUT index silently poisons every cell it touches.  This module
    watches the *state*, where {!Tracer} watches the *time*:

    - {b streaming reducers}: per monitored variable, min / max / mean
      (sum + count over finite samples), NaN and ±Inf counts, and
      range-violation counts (gates outside [0, 1], the membrane
      potential outside a configurable window);
    - {b engine-independent}: samples are taken straight from the
      simulation state buffer (any of the three layouts), so every
      execution engine is covered by the same code and sampling can
      never change a result bit — reducers only read;
    - {b lock-free per-Domain accumulators}: each Domain accumulates
      into its own cells (reached through domain-local storage, the
      {!Tracer} ring design) and the cells merge only at {!snapshot};
      the parallel compute stage never contends to stay healthy;
    - {b near-zero cost when off}: the sampling gate ({!due}) is one
      atomic flag load plus a modulo — callers skip everything else;
    - {b trip policies}: the first violation per (variable, reason)
      becomes a {e trip} carrying variable / cell / step / value.
      Under [Warn] each trip is reported once through the warn sink
      (the driver routes this through [Easyml.Diag]); under [Abort],
      hard trips (NaN, ±Inf, membrane-potential range) raise
      {!Tripped} with a structured report naming model, variable, cell
      and step.  Gate-range wiggle only ever warns: it is a fidelity
      signal, not a poisoned run. *)

(* Minimal mirror of [Runtime.Layout.t]: obs sits below runtime in the
   library stack, so the driver translates its layout into this. *)
type layout =
  | Cell_major  (** AoS: [cell*nvars + var] *)
  | Var_major  (** SoA: [var*ncells_pad + cell] *)
  | Blocked of int  (** AoSoA with block size [w] *)

type policy = Warn | Abort

type reason = Nan | Inf | Gate_range | Vm_range | Conduction_block | Solver_failure

let reason_name = function
  | Nan -> "nan"
  | Inf -> "inf"
  | Gate_range -> "gate-range"
  | Vm_range -> "vm-range"
  | Conduction_block -> "conduction-block"
  | Solver_failure -> "solver-failure"

(* NaN and Inf poison results; a configured membrane-potential window is
   an explicit divergence watchdog; a conduction block means the tissue
   simulation failed its purpose (the wavefront never left the stimulus
   site); a diffusion solve that stopped short of its tolerance handed
   back no solution.  Gate excursions are only warned. *)
let hard_reason = function
  | Nan | Inf | Vm_range | Conduction_block | Solver_failure -> true
  | Gate_range -> false

type config = {
  stride : int;  (** sample every [stride]-th step *)
  policy : policy;
}

let default_config = { stride = 16; policy = Warn }

(* membrane-potential watchdog window, mV *)
let vm_lo = -200.0
let vm_hi = 200.0

(* distinct trips retained for the report *)
let max_trips = 16

type var_spec = {
  v_name : string;
  v_slot : int;  (** slot in the state buffer *)
  v_gate : bool;  (** occupancy/gate semantics: must stay in [0, 1] *)
}

type trip = {
  t_var : string;
  t_reason : reason;
  t_cell : int;
  t_step : int;
  t_value : float;
}

(* Per-Domain accumulator for one monitored variable.  Only the owning
   Domain writes it; merges happen at snapshot time while the parallel
   region is quiescent (same contract as the tracer rings). *)
type acc = {
  mutable a_n : int;  (** finite samples *)
  mutable a_sum : float;
  mutable a_min : float;  (** +inf until the first finite sample *)
  mutable a_max : float;  (** -inf until the first finite sample *)
  mutable a_nan : int;
  mutable a_inf : int;
  mutable a_range : int;
  (* first-detection latches: after the first offence of a reason this
     Domain stops offering trips for it, so the (mutex-guarded) trip
     list is touched a bounded number of times per run *)
  mutable a_seen_nan : bool;
  mutable a_seen_inf : bool;
  mutable a_seen_range : bool;
}

let fresh_acc () =
  {
    a_n = 0;
    a_sum = 0.0;
    a_min = Float.infinity;
    a_max = Float.neg_infinity;
    a_nan = 0;
    a_inf = 0;
    a_range = 0;
    a_seen_nan = false;
    a_seen_inf = false;
    a_seen_range = false;
  }

type t = {
  h_id : int;
  h_model : string;
  h_cfg : config;
  h_vars : var_spec array;
  h_layout : layout;
  h_nvars : int;
  h_ncells_pad : int;
  h_on : bool Atomic.t;
  h_tripped : bool Atomic.t;  (** any trip recorded *)
  h_unhealthy : bool Atomic.t;  (** any {e hard} trip — the /healthz state *)
  h_lock : Mutex.t;
  mutable h_trips : trip list;  (** newest first, deduped by (var, reason) *)
  mutable h_unreported : trip list;  (** not yet pushed through {!enforce} *)
  h_warn : string -> unit;
  mutable h_steps : int;  (** sampled steps (bumped by {!note_sampled}) *)
}

(* -- per-Domain accumulator registry ---------------------------------- *)

let next_id = Atomic.make 0

(* All accumulator arrays ever handed out, tagged with their instance id,
   so snapshot can merge cells of Domains that no longer run. *)
let reg_lock = Mutex.create ()
let registered : (int * acc array) list ref = ref []

let table_key : (int, acc array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

(* This Domain's accumulators for instance [h] (allocated and registered
   on first use; the [+ 1] cell is the membrane-potential watchdog). *)
let accs_for (h : t) : acc array =
  let tbl = Domain.DLS.get table_key in
  match Hashtbl.find_opt tbl h.h_id with
  | Some a -> a
  | None ->
      let a =
        Array.init (Array.length h.h_vars + 1) (fun _ -> fresh_acc ())
      in
      Hashtbl.add tbl h.h_id a;
      Mutex.lock reg_lock;
      registered := (h.h_id, a) :: !registered;
      Mutex.unlock reg_lock;
      a

(* -- construction ----------------------------------------------------- *)

let create ?(cfg = default_config) ~(model : string) ~(layout : layout)
    ~(nvars : int) ~(ncells_pad : int) ~(vars : var_spec list)
    ?(warn = fun msg -> Printf.eprintf "%s\n%!" msg) () : t =
  if cfg.stride <= 0 then invalid_arg "Health.create: stride must be > 0";
  {
    h_id = Atomic.fetch_and_add next_id 1;
    h_model = model;
    h_cfg = cfg;
    h_vars = Array.of_list vars;
    h_layout = layout;
    h_nvars = max 1 nvars;
    h_ncells_pad = ncells_pad;
    h_on = Atomic.make true;
    h_tripped = Atomic.make false;
    h_unhealthy = Atomic.make false;
    h_lock = Mutex.create ();
    h_trips = [];
    h_unreported = [];
    h_warn = warn;
    h_steps = 0;
  }

let set_enabled (h : t) (b : bool) : unit = Atomic.set h.h_on b
let enabled (h : t) : bool = Atomic.get h.h_on

(* The sampling gate the driver hot path checks: one atomic load and a
   modulo when enabled, one atomic load when not. *)
let due (h : t) ~(step : int) : bool =
  Atomic.get h.h_on && step mod h.h_cfg.stride = 0

let tripped (h : t) : bool = Atomic.get h.h_tripped
let unhealthy (h : t) : bool = Atomic.get h.h_unhealthy

(* -- recording -------------------------------------------------------- *)

let index (l : layout) ~(nvars : int) ~(ncells_pad : int) ~(cell : int)
    ~(var : int) : int =
  match l with
  | Cell_major -> (cell * nvars) + var
  | Var_major -> (var * ncells_pad) + cell
  | Blocked w -> (cell / w * nvars * w) + (var * w) + (cell mod w)

(* Record the first offence per (var, reason): dedup + bounded retention
   under the instance mutex — reached at most once per (Domain, var,
   reason) thanks to the per-acc latches, so contention is nil. *)
let offer_trip (h : t) ~(var : string) ~(reason : reason) ~(cell : int)
    ~(step : int) ~(value : float) : unit =
  Atomic.set h.h_tripped true;
  if hard_reason reason then Atomic.set h.h_unhealthy true;
  Mutex.lock h.h_lock;
  let dup =
    List.exists (fun t -> t.t_var = var && t.t_reason = reason) h.h_trips
  in
  if (not dup) && List.length h.h_trips < max_trips then begin
    let t =
      { t_var = var; t_reason = reason; t_cell = cell; t_step = step;
        t_value = value }
    in
    h.h_trips <- t :: h.h_trips;
    h.h_unreported <- t :: h.h_unreported
  end;
  Mutex.unlock h.h_lock

let observe (h : t) (a : acc) ~(name : string) ~(gate : bool) ~(cell : int)
    ~(step : int) (x : float) : unit =
  if Float.is_nan x then begin
    a.a_nan <- a.a_nan + 1;
    if not a.a_seen_nan then begin
      a.a_seen_nan <- true;
      offer_trip h ~var:name ~reason:Nan ~cell ~step ~value:x
    end
  end
  else if x = Float.infinity || x = Float.neg_infinity then begin
    a.a_inf <- a.a_inf + 1;
    if not a.a_seen_inf then begin
      a.a_seen_inf <- true;
      offer_trip h ~var:name ~reason:Inf ~cell ~step ~value:x
    end
  end
  else begin
    a.a_n <- a.a_n + 1;
    a.a_sum <- a.a_sum +. x;
    if x < a.a_min then a.a_min <- x;
    if x > a.a_max then a.a_max <- x;
    if gate && (x < 0.0 || x > 1.0) then begin
      a.a_range <- a.a_range + 1;
      if not a.a_seen_range then begin
        a.a_seen_range <- true;
        offer_trip h ~var:name ~reason:Gate_range ~cell ~step ~value:x
      end
    end
  end

(** Reduce cells [lo, hi) of the state buffer [sv] (and, when given, the
    membrane-potential buffer [vm], indexed plainly by cell) into this
    Domain's accumulators.  Reads only — never touches simulation state.
    Call from the Domain that owns the chunk. *)
let sample_chunk (h : t) ~(sv : floatarray) ~(vm : floatarray option)
    ~(lo : int) ~(hi : int) ~(step : int) : unit =
  if Atomic.get h.h_on && hi > lo then begin
    let accs = accs_for h in
    let nvars = h.h_nvars and ncells_pad = h.h_ncells_pad in
    Array.iteri
      (fun i v ->
        let a = accs.(i) in
        for cell = lo to hi - 1 do
          observe h a ~name:v.v_name ~gate:v.v_gate ~cell ~step
            (Float.Array.get sv
               (index h.h_layout ~nvars ~ncells_pad ~cell ~var:v.v_slot))
        done)
      h.h_vars;
    match vm with
    | None -> ()
    | Some buf ->
        let a = accs.(Array.length h.h_vars) in
        for cell = lo to hi - 1 do
          let x = Float.Array.get buf cell in
          observe h a ~name:"Vm" ~gate:false ~cell ~step x;
          if
            (not (Float.is_nan x))
            && Float.abs x <> Float.infinity
            && (x < vm_lo || x > vm_hi)
          then begin
            a.a_range <- a.a_range + 1;
            if not a.a_seen_range then begin
              a.a_seen_range <- true;
              offer_trip h ~var:"Vm" ~reason:Vm_range ~cell ~step ~value:x
            end
          end
        done
  end

let note_sampled (h : t) : unit = h.h_steps <- h.h_steps + 1

(** Conduction-block detector hook for tissue-scale simulations: the
    monodomain engine calls this when its plausibility window expired
    with no activation past the stimulus site.  Records one
    [Conduction_block] trip against [Vm] (deduped like every other
    reason) and flips the unhealthy flag — the block surfaces through
    {!enforce}, {!snapshot} and /healthz exactly like a NaN would. *)
let note_block (h : t) ~(cell : int) ~(step : int) : unit =
  if Atomic.get h.h_on then
    offer_trip h ~var:"Vm" ~reason:Conduction_block ~cell ~step
      ~value:Float.nan

(** Linear-solver hook for tissue-scale simulations: the monodomain
    engine calls this when a diffusion solve has no solution (a CG solve
    with a non-finite residual or a used-up iteration budget, or a cable
    whose Vm at cell 0 came out non-finite).  Records one
    [Solver_failure] trip against [Vm] carrying the residual, or that
    Vm. *)
let note_solver (h : t) ~(cell : int) ~(step : int) ~(residual : float) : unit =
  if Atomic.get h.h_on then
    offer_trip h ~var:"Vm" ~reason:Solver_failure ~cell ~step ~value:residual

(* -- policy ----------------------------------------------------------- *)

exception Tripped of string

let report (h : t) (t : trip) : string =
  Printf.sprintf
    "health watchdog tripped: model=%s variable=%s cell=%d step=%d value=%g \
     reason=%s"
    h.h_model t.t_var t.t_cell t.t_step t.t_value (reason_name t.t_reason)

(** Apply the trip policy to every not-yet-reported trip.  [Warn] pushes
    each through the warn sink (once per (variable, reason)); [Abort]
    does the same for soft trips but raises {!Tripped} on the first hard
    one (NaN / Inf / membrane-potential range).  Call after the parallel
    region returned — never from inside a worker Domain. *)
let enforce (h : t) : unit =
  if Atomic.get h.h_tripped then begin
    Mutex.lock h.h_lock;
    let pending = List.rev h.h_unreported in
    h.h_unreported <- [];
    Mutex.unlock h.h_lock;
    List.iter
      (fun t ->
        match h.h_cfg.policy with
        | Abort when hard_reason t.t_reason -> raise (Tripped (report h t))
        | Warn | Abort -> h.h_warn (report h t))
      pending
  end

(* -- snapshot --------------------------------------------------------- *)

type var_stat = {
  vs_name : string;
  vs_gate : bool;
  vs_samples : int;  (** finite samples *)
  vs_min : float;  (** NaN when no finite sample was seen *)
  vs_max : float;
  vs_mean : float;
  vs_nan : int;
  vs_inf : int;
  vs_range : int;  (** gate-clamp or membrane-window violations *)
}

type snapshot = {
  hs_model : string;
  hs_steps_sampled : int;
  hs_tripped : bool;
  hs_unhealthy : bool;
  hs_vars : var_stat list;  (** monitored variables, then ["Vm"] *)
  hs_trips : trip list;  (** oldest first *)
}

(** Merge every Domain's accumulators.  Call while no Domain is sampling
    (after the parallel region returned). *)
let snapshot (h : t) : snapshot =
  Mutex.lock reg_lock;
  let arrays =
    List.filter_map
      (fun (id, a) -> if id = h.h_id then Some a else None)
      !registered
  in
  Mutex.unlock reg_lock;
  let nmon = Array.length h.h_vars + 1 in
  let merged = Array.init nmon (fun _ -> fresh_acc ()) in
  List.iter
    (fun arr ->
      Array.iteri
        (fun i (a : acc) ->
          let m = merged.(i) in
          m.a_n <- m.a_n + a.a_n;
          m.a_sum <- m.a_sum +. a.a_sum;
          if a.a_min < m.a_min then m.a_min <- a.a_min;
          if a.a_max > m.a_max then m.a_max <- a.a_max;
          m.a_nan <- m.a_nan + a.a_nan;
          m.a_inf <- m.a_inf + a.a_inf;
          m.a_range <- m.a_range + a.a_range)
        arr)
    arrays;
  let stat name gate (a : acc) =
    {
      vs_name = name;
      vs_gate = gate;
      vs_samples = a.a_n;
      vs_min = (if a.a_n = 0 then Float.nan else a.a_min);
      vs_max = (if a.a_n = 0 then Float.nan else a.a_max);
      vs_mean = (if a.a_n = 0 then Float.nan else a.a_sum /. float_of_int a.a_n);
      vs_nan = a.a_nan;
      vs_inf = a.a_inf;
      vs_range = a.a_range;
    }
  in
  let vars =
    List.mapi
      (fun i (v : var_spec) -> stat v.v_name v.v_gate merged.(i))
      (Array.to_list h.h_vars)
    @ [ stat "Vm" false merged.(nmon - 1) ]
  in
  Mutex.lock h.h_lock;
  let trips = List.rev h.h_trips in
  Mutex.unlock h.h_lock;
  {
    hs_model = h.h_model;
    hs_steps_sampled = h.h_steps;
    hs_tripped = Atomic.get h.h_tripped;
    hs_unhealthy = Atomic.get h.h_unhealthy;
    hs_vars = vars;
    hs_trips = trips;
  }

(** Total (NaN, Inf, range-violation) counts across every variable. *)
let totals (s : snapshot) : int * int * int =
  List.fold_left
    (fun (n, i, r) vs -> (n + vs.vs_nan, i + vs.vs_inf, r + vs.vs_range))
    (0, 0, 0) s.hs_vars
