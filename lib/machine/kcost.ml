(** Static cost analysis of generated kernels.

    Walks the compute function of a generated kernel and accumulates, for
    one iteration of the cell loop, the model cycle cost, flop count and
    memory traffic — then normalizes per cell (a vector iteration covers
    [width] cells).  The paper obtains the same quantities by instrumenting
    the generated MLIR (memory ops) and reading hardware counters (flops);
    here the IR is the single source of truth for both. *)

open Ir

type metrics = {
  cycles_per_cell : float;  (** compute cycles per cell per step *)
  flops_per_cell : float;  (** useful double-precision flops *)
  bytes_per_cell : float;  (** memory traffic, bytes *)
  preamble_cycles : float;  (** per kernel invocation (hoisted ops) *)
  loads_per_cell : float;
  stores_per_cell : float;
}

type acc = {
  mutable cycles : float;
  mutable flops : float;
  mutable bytes : float;
  mutable loads : float;
  mutable stores : float;
}

let new_acc () = { cycles = 0.; flops = 0.; bytes = 0.; loads = 0.; stores = 0. }

(* Constant integer values, to resolve LUT geometry operands and constant
   trip counts. *)
let const_ints (f : Func.func) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  Op.iter_region
    (fun o ->
      match o.Op.kind with
      | Op.ConstI c -> Hashtbl.replace tbl o.results.(0).id c
      | _ -> ())
    f.Func.f_body;
  tbl

let cost_op (a : Arch.t) ~(scalar_math : bool) (ints : (int, int) Hashtbl.t)
    (acc : acc) (o : Op.op) ~(mult : float) : unit =
  let w = float_of_int (max a.Arch.width 1) in
  let vec =
    Array.length o.Op.results > 0
    && (match o.Op.results.(0).ty with Ty.Vec _ -> true | _ -> false)
    || Array.exists
         (fun (v : Value.t) -> match v.ty with Ty.Vec _ -> true | _ -> false)
         o.Op.operands
  in
  let add_cycles c = acc.cycles <- acc.cycles +. (mult *. c) in
  let add_flops fl = acc.flops <- acc.flops +. (mult *. fl) in
  let add_bytes by = acc.bytes <- acc.bytes +. (mult *. by) in
  match o.Op.kind with
  | Op.ConstF _ | Op.ConstI _ | Op.Iota _ -> add_cycles 0.5
  | Op.Broadcast -> add_cycles a.flop_cycles
  | Op.BinF Op.FDiv ->
      add_cycles (if vec then a.div_cycles *. (w /. 2.) else a.div_cycles);
      add_flops (if vec then w else 1.)
  | Op.BinF _ | Op.NegF ->
      add_cycles a.flop_cycles;
      add_flops (if vec then w else 1.)
  | Op.BinI _ | Op.BinB _ | Op.NotB | Op.SIToFP -> add_cycles a.flop_cycles
  | Op.CmpF _ | Op.Select ->
      add_cycles a.flop_cycles;
      add_flops (if vec then w else 1.)
  | Op.Math name ->
      let unit =
        match Easyml.Builtins.find name with
        | Some bi -> float_of_int bi.flops
        | None -> 20.
      in
      if not vec then begin
        add_cycles (a.libm_factor *. unit);
        add_flops unit
      end
      else if scalar_math then begin
        (* icc-style: the call is serialized per lane *)
        add_cycles (w *. a.libm_factor *. unit);
        add_flops (w *. unit)
      end
      else begin
        (* one SVML call for the whole vector *)
        add_cycles (a.svml_factor *. unit);
        add_flops (w *. unit)
      end
  | Op.MemLoad ->
      add_cycles a.load_cycles;
      add_bytes 8.;
      acc.loads <- acc.loads +. mult
  | Op.MemStore ->
      add_cycles a.load_cycles;
      add_bytes 8.;
      acc.stores <- acc.stores +. mult
  | Op.VecLoad ->
      add_cycles a.vload_cycles;
      add_bytes (8. *. w);
      acc.loads <- acc.loads +. (mult *. w)
  | Op.VecStore ->
      add_cycles a.vload_cycles;
      add_bytes (8. *. w);
      acc.stores <- acc.stores +. (mult *. w)
  | Op.Gather ->
      add_cycles (a.gather_base +. (a.gather_lane *. w));
      add_bytes (8. *. w);
      acc.loads <- acc.loads +. (mult *. w)
  | Op.Scatter ->
      add_cycles (a.gather_base +. (a.gather_lane *. w));
      add_bytes (8. *. w);
      acc.stores <- acc.stores +. (mult *. w)
  | Op.Call name when name = "lut_interp" || name = "lut_interp_cubic" ->
      let spline = name = "lut_interp_cubic" in
      (* locate + per-column linear interpolation, one cell *)
      let cols =
        match Hashtbl.find_opt ints o.Op.operands.(6).Value.id with
        | Some c -> float_of_int c
        | None -> 4.
      in
      let percol = if spline then 11.0 else 3.5 in
      add_cycles (10. +. (percol *. cols));
      add_flops (3. +. ((if spline then 10. else 3.) *. cols));
      (* table rows are L2-resident and shared between neighbouring cells;
         only the per-cell index traffic is charged (the paper instruments
         the kernel's own memory ops, not the interpolation callee) *)
      add_bytes 16.;
      acc.loads <- acc.loads +. (mult *. 2.)
  | Op.Call name when name = "lut_interp_vec" || name = "lut_interp_cubic_vec"
    ->
      let spline = name = "lut_interp_cubic_vec" in
      (* hand-vectorized: shared row fetch, per-lane interpolation *)
      let cols =
        match Hashtbl.find_opt ints o.Op.operands.(6).Value.id with
        | Some c -> float_of_int c
        | None -> 4.
      in
      let lane = if spline then 1.4 else 0.45 in
      let base = if spline then 3.5 else 1.4 in
      add_cycles (12. +. (cols *. (base +. (lane *. w))));
      add_flops ((3. +. ((if spline then 10. else 3.) *. cols)) *. w);
      add_bytes (16. *. w);
      acc.loads <- acc.loads +. (mult *. 2. *. w)
  | Op.Call _ -> add_cycles a.call_overhead
  | Op.Yield | Op.Return -> ()
  | Op.For _ -> () (* handled by the region walker *)

(* Walk a region, scaling nested constant-trip loops; unknown-trip loops use
   [default_trip]. *)
let rec cost_region (a : Arch.t) ~scalar_math ints acc (r : Op.region)
    ~(mult : float) ~(default_trip : float) : unit =
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.For _ ->
          let trip =
            match
              ( Hashtbl.find_opt ints o.Op.operands.(0).Value.id,
                Hashtbl.find_opt ints o.Op.operands.(1).Value.id,
                Hashtbl.find_opt ints o.Op.operands.(2).Value.id )
            with
            | Some lb, Some ub, Some st when st > 0 ->
                float_of_int (max 0 ((ub - lb + st - 1) / st))
            | _ -> default_trip
          in
          acc.cycles <- acc.cycles +. (mult *. trip *. a.loop_cycles);
          cost_region a ~scalar_math ints acc o.Op.regions.(0)
            ~mult:(mult *. trip) ~default_trip
      | _ -> cost_op a ~scalar_math ints acc o ~mult)
    r.Op.r_ops

(** Analyze a generated kernel's [compute] function. *)
let analyze (a : Arch.t) ~(scalar_math : bool) (f : Func.func) : metrics =
  let ints = const_ints f in
  let w = float_of_int (max a.Arch.width 1) in
  (* the cell loop is the unique top-level scf.for; ops before/after it are
     per-invocation preamble *)
  let pre = new_acc () in
  let body = new_acc () in
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.For _ ->
          cost_region a ~scalar_math ints body o.Op.regions.(0) ~mult:1.0
            ~default_trip:1.0;
          body.cycles <- body.cycles +. a.loop_cycles
      | _ -> cost_op a ~scalar_math ints pre o ~mult:1.0)
    f.Func.f_body.Op.r_ops;
  {
    cycles_per_cell = body.cycles /. w;
    flops_per_cell = body.flops /. w;
    bytes_per_cell = body.bytes /. w;
    preamble_cycles = pre.cycles +. a.call_overhead;
    loads_per_cell = body.loads /. w;
    stores_per_cell = body.stores /. w;
  }

(** Analyze a generated kernel under an architecture matching its width. *)
let of_kernel (gen : Codegen.Kernel.t) : metrics =
  let cfg = gen.Codegen.Kernel.cfg in
  let a = Arch.of_width cfg.Codegen.Config.width in
  match Ir.Func.find_func gen.Codegen.Kernel.modl Codegen.Kernel.compute_name with
  | Some f -> analyze a ~scalar_math:cfg.Codegen.Config.scalar_math f
  | None -> invalid_arg "Kcost.of_kernel: no compute function"
