(** Domain-based parallel-for with a static schedule.

    The OCaml 5 stand-in for the paper's
    [#pragma omp parallel for schedule(static)].  The iteration space is
    split into [nthreads] contiguous chunks; chunk [k] runs on domain [k]
    (chunk 0 on the calling domain).  With [nthreads = 1] no domain is
    involved.

    Workers are persistent: the first parallel region parks a pool of
    domains on condition variables and later regions only hand them jobs,
    because [Domain.spawn] costs milliseconds — per-step spawning would
    dwarf the compute stage itself (the omp analogue: the thread team
    outlives the parallel region). *)

(** [chunks ~nthreads ~lo ~hi] returns the per-thread [(lo, hi)] ranges of a
    static schedule (balanced to within one iteration). *)
let chunks ~(nthreads : int) ~(lo : int) ~(hi : int) : (int * int) list =
  if nthreads <= 0 then invalid_arg "Parallel.chunks: nthreads must be > 0";
  let n = max 0 (hi - lo) in
  let base = n / nthreads and extra = n mod nthreads in
  let rec go k start acc =
    if k = nthreads then List.rev acc
    else
      let len = base + if k < extra then 1 else 0 in
      go (k + 1) (start + len) ((start, start + len) :: acc)
  in
  go 0 lo []

(* -- persistent worker pool ------------------------------------------- *)

type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable idle : bool;  (* no submitted job still running *)
  mutable failed : exn option;
  mutable stop : bool;
  mutable dom : unit Domain.t option;
}

let worker_loop (w : worker) () =
  Mutex.lock w.m;
  let running = ref true in
  while !running do
    match w.job with
    | Some f ->
        w.job <- None;
        Mutex.unlock w.m;
        let r = (try f (); None with e -> Some e) in
        Mutex.lock w.m;
        w.failed <- r;
        w.idle <- true;
        Condition.broadcast w.cv
    | None -> if w.stop then running := false else Condition.wait w.cv w.m
  done;
  Mutex.unlock w.m

let make_worker () : worker =
  let w =
    { m = Mutex.create (); cv = Condition.create (); job = None; idle = true;
      failed = None; stop = false; dom = None }
  in
  w.dom <- Some (Domain.spawn (worker_loop w));
  w

let submit (w : worker) (f : unit -> unit) : unit =
  Mutex.lock w.m;
  w.job <- Some f;
  w.idle <- false;
  w.failed <- None;
  Condition.broadcast w.cv;
  Mutex.unlock w.m

(** Wait for the worker's current job; re-raise its exception here. *)
let await (w : worker) : unit =
  Mutex.lock w.m;
  while not w.idle do
    Condition.wait w.cv w.m
  done;
  let r = w.failed in
  w.failed <- None;
  Mutex.unlock w.m;
  match r with Some e -> raise e | None -> ()

let pool : worker array ref = ref [||]
let pool_lock = Mutex.create ()
let shutdown_installed = ref false

(* Parked domains would make the program hang at exit; stop and join them
   from at_exit. *)
let stop_workers () =
  Mutex.lock pool_lock;
  let ws = !pool in
  pool := [||];
  Mutex.unlock pool_lock;
  Array.iter
    (fun w ->
      Mutex.lock w.m;
      w.stop <- true;
      Condition.broadcast w.cv;
      Mutex.unlock w.m)
    ws;
  Array.iter (fun w -> Option.iter Domain.join w.dom) ws

(* Grow the pool to [n] workers; caller holds [pool_lock]. *)
let ensure (n : int) : worker array =
  if Array.length !pool < n then begin
    if not !shutdown_installed then begin
      shutdown_installed := true;
      at_exit stop_workers
    end;
    pool :=
      Array.append !pool
        (Array.init (n - Array.length !pool) (fun _ -> make_worker ()))
  end;
  !pool

(** Run [jobs.(k)], k >= 1, on pooled workers while the caller runs
    [jobs.(0)]; returns when all are done, re-raising the first worker
    failure.  Nested or concurrent regions (the pool is busy) fall back to
    one-shot domains so they stay correct, just not pooled. *)
let run_on_pool (jobs : (unit -> unit) array) : unit =
  let n = Array.length jobs in
  if n = 1 then jobs.(0) ()
  else if Mutex.try_lock pool_lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool_lock)
      (fun () ->
        let ws = ensure (n - 1) in
        for k = 1 to n - 1 do
          submit ws.(k - 1) jobs.(k)
        done;
        jobs.(0) ();
        let err = ref None in
        for k = 1 to n - 1 do
          try await ws.(k - 1)
          with e -> if Option.is_none !err then err := Some e
        done;
        match !err with Some e -> raise e | None -> ())
  else begin
    let ds = Array.map Domain.spawn (Array.sub jobs 1 (n - 1)) in
    jobs.(0) ();
    Array.iter Domain.join ds
  end

(* -- parallel loops ---------------------------------------------------- *)

(** [parallel_for_chunks ~nthreads ~lo ~hi body] runs [body k chunk_lo
    chunk_hi] for every chunk [k] of the static schedule, concurrently on
    [nthreads] domains.  [body] must only write to disjoint data per
    chunk; the chunk index lets callers select per-domain resources
    (kernel instances, scratch rows) that must not be shared between
    domains. *)
let parallel_for_chunks ~(nthreads : int) ~(lo : int) ~(hi : int)
    (body : int -> int -> int -> unit) : unit =
  let cs = List.mapi (fun k c -> (k, c)) (chunks ~nthreads ~lo ~hi) in
  match List.filter (fun (_, (l, h)) -> h > l) cs with
  | [] -> ()
  | [ (k, (l, h)) ] -> body k l h
  | cs ->
      run_on_pool
        (Array.of_list (List.map (fun (k, (l, h)) () -> body k l h) cs))
