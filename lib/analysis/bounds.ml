(** Bounds proofs: which memory ops can never index out of range?

    Runs the interval analysis (optionally seeded with facts the caller
    knows — concrete loop bounds, the padded cell count, buffer
    relationships) and, for every load/store/gather/scatter whose
    touched-index interval provably fits inside the buffer the caller
    vouches lengths for, records the op id in the {e proved} set.

    The execution engines consume that set to drop their per-access
    OCaml bounds checks (switching to [unsafe_get]/[unsafe_set] and
    unchecked tile instructions).  Only failure checks are elided —
    never value-affecting clamps — so elision cannot change results,
    only skip branches that were proved untakeable. *)

open Ir
module I = Itv.I

type proved = (int, unit) Hashtbl.t

let is_proved (p : proved) (o : Op.op) : bool = Hashtbl.mem p o.Op.o_id
let cardinal (p : proved) : int = Hashtbl.length p

(* Ops the engines have unchecked variants for.  Calls are never tagged:
   externs do their own internal indexing. *)
let elidable (o : Op.op) : bool =
  match o.Op.kind with
  | Op.MemLoad | Op.MemStore | Op.VecLoad | Op.VecStore | Op.Gather
  | Op.Scatter ->
      true
  | _ -> false

(** [prove_func ~len_of ?seed f] returns the set of access ops proved
    in-bounds.  [len_of origin] is the guaranteed minimum length (in
    elements) of the buffer behind [origin], or [None] if unknown. *)
let prove_func ?seed ~(len_of : Interval.origin -> int option)
    (f : Func.func) : proved =
  let proved : proved = Hashtbl.create 64 in
  let visit st (o : Op.op) =
    if elidable o then
      let ok =
        match Footprint.accesses_of st o with
        | [] -> false
        | accs ->
            List.for_all
              (fun (a : Footprint.access) ->
                I.is_bot a.Footprint.acc_itv
                ||
                match len_of a.Footprint.acc_origin with
                | None -> false
                | Some n ->
                    a.Footprint.acc_itv.I.lo >= 0
                    && a.Footprint.acc_itv.I.hi <= n - 1)
              accs
      in
      if ok then Hashtbl.replace proved o.Op.o_id ()
  in
  ignore (Interval.analyze_func ?seed ~visit f : Interval.state);
  proved

(** Count of elidable access ops in a function, for reporting proof
    coverage. *)
let elidable_count (f : Func.func) : int =
  Op.fold_region (fun n o -> if elidable o then n + 1 else n) 0 f.Func.f_body
