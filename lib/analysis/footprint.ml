(** Memory-footprint summaries.

    {!of_func}: a global, interval-powered summary — every load/store/
    gather/scatter (and the LUT extern calls, via a small effect table)
    is recorded as an {!access}: a symbolic buffer {e origin} plus a
    congruence interval of touched element indices.  Seeding the
    analysis with concrete chunk bounds turns this into the per-chunk
    write sets the race checker intersects.  {!chase_idx} normalizes constant index arithmetic for same-block
    reasoning ({!Meminit}). *)

open Ir
module I = Itv.I

type access = {
  acc_op : Op.op;
  acc_origin : Interval.origin;
  acc_itv : I.t;  (** touched element indices, all lanes included *)
  acc_write : bool;
}

(* Vector ops at width [w] starting at index [i] touch [i .. i+w-1]. *)
let widen_by (itv : I.t) (w : int) : I.t =
  if w <= 1 then itv else I.add itv (I.range 0 (w - 1))

let value_width (x : Value.t) : int = Ty.width x.Value.ty

(* Effects of the known runtime externs.  [lut_interp*(table, row, x,
   lo, step, rows, cols)] reads the whole table and fills the first
   [cols * lanes(x)] slots of the row buffer.  Unknown externs are
   assumed to read and write every memref operand in full. *)
let call_accesses (st : Interval.state) (o : Op.op) : access list =
  let origin i = Interval.mem_origin st o.Op.operands.(i) in
  match o.Op.kind with
  | Op.Call
      ("lut_interp" | "lut_interp_vec" | "lut_interp_cubic"
      | "lut_interp_cubic_vec") ->
      let rows = Interval.int_itv st o.Op.operands.(5)
      and cols = Interval.int_itv st o.Op.operands.(6) in
      let w = value_width o.Op.operands.(2) in
      let table_itv =
        if I.is_bot rows || I.is_bot cols then I.bot
        else I.range 0 (Itv.sat_sub (Itv.sat_mul rows.I.hi cols.I.hi) 1)
      in
      let row_itv =
        if I.is_bot cols then I.bot
        else I.range 0 (Itv.sat_sub (Itv.sat_mul cols.I.hi w) 1)
      in
      [
        { acc_op = o; acc_origin = origin 0; acc_itv = table_itv; acc_write = false };
        { acc_op = o; acc_origin = origin 1; acc_itv = row_itv; acc_write = true };
      ]
  | Op.Call _ ->
      Array.to_list o.Op.operands
      |> List.concat_map (fun (x : Value.t) ->
             if x.Value.ty = Ty.Memref then
               let origin = Interval.mem_origin st x in
               [
                 { acc_op = o; acc_origin = origin; acc_itv = I.top; acc_write = false };
                 { acc_op = o; acc_origin = origin; acc_itv = I.top; acc_write = true };
               ]
             else [])
  | _ -> []

(** Accesses performed by a single op, given converged interval facts. *)
let accesses_of (st : Interval.state) (o : Op.op) : access list =
  let origin i = Interval.mem_origin st o.Op.operands.(i) in
  let idx i = Interval.int_itv st o.Op.operands.(i) in
  match o.Op.kind with
  | Op.MemLoad ->
      [ { acc_op = o; acc_origin = origin 0; acc_itv = idx 1; acc_write = false } ]
  | Op.MemStore ->
      [ { acc_op = o; acc_origin = origin 1; acc_itv = idx 2; acc_write = true } ]
  | Op.VecLoad ->
      let w = value_width o.Op.results.(0) in
      [
        {
          acc_op = o;
          acc_origin = origin 0;
          acc_itv = widen_by (idx 1) w;
          acc_write = false;
        };
      ]
  | Op.VecStore ->
      let w = value_width o.Op.operands.(0) in
      [
        {
          acc_op = o;
          acc_origin = origin 1;
          acc_itv = widen_by (idx 2) w;
          acc_write = true;
        };
      ]
  | Op.Gather ->
      [ { acc_op = o; acc_origin = origin 0; acc_itv = idx 1; acc_write = false } ]
  | Op.Scatter ->
      [ { acc_op = o; acc_origin = origin 1; acc_itv = idx 2; acc_write = true } ]
  | Op.Call _ -> call_accesses st o
  | _ -> []

(** Analyze [f] (optionally seeding parameter values — e.g. concrete
    chunk bounds) and collect every access on the converged
    environment.  Accesses in provably-dead loops are not reported. *)
let of_func ?seed (f : Func.func) : Interval.state * access list =
  let acc = ref [] in
  let visit st o = acc := List.rev_append (accesses_of st o) !acc in
  let st = Interval.analyze_func ?seed ~visit f in
  (st, List.rev !acc)

let writes (accs : access list) = List.filter (fun a -> a.acc_write) accs
let reads (accs : access list) = List.filter (fun a -> not a.acc_write) accs

(** Accesses grouped per origin, origins in first-touch order. *)
let by_origin (accs : access list) : (Interval.origin * access list) list =
  List.fold_left
    (fun groups a ->
      let rec insert = function
        | [] -> [ (a.acc_origin, [ a ]) ]
        | (o, l) :: rest when Interval.origin_equal o a.acc_origin ->
            (o, a :: l) :: rest
        | g :: rest -> g :: insert rest
      in
      insert groups)
    [] accs
  |> List.map (fun (o, l) -> (o, List.rev l))

(* ------------------------------------------------------------------ *)
(* Index normalization                                                 *)
(* ------------------------------------------------------------------ *)

(* Normalize an index to (symbolic root, constant offset) by chasing
   [x + c] / [x - c] / [c] chains.  [defs] maps an SSA value to its
   defining op (None for block arguments / parameters). *)
let rec chase_idx (defs : Value.t -> Op.op option) (v : Value.t) (off : int)
    (fuel : int) : Value.t option * int =
  if fuel <= 0 then (Some v, off)
  else
    match defs v with
    | Some { Op.kind = Op.ConstI n; _ } -> (None, off + n)
    | Some { Op.kind = Op.BinI Op.IAdd; operands = [| a; b |]; _ } -> (
        match (defs a, defs b) with
        | _, Some { Op.kind = Op.ConstI n; _ } ->
            chase_idx defs a (off + n) (fuel - 1)
        | Some { Op.kind = Op.ConstI n; _ }, _ ->
            chase_idx defs b (off + n) (fuel - 1)
        | _ -> (Some v, off))
    | Some { Op.kind = Op.BinI Op.ISub; operands = [| a; b |]; _ } -> (
        match defs b with
        | Some { Op.kind = Op.ConstI n; _ } ->
            chase_idx defs a (off - n) (fuel - 1)
        | _ -> (Some v, off))
    | _ -> (Some v, off)
