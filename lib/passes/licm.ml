(** Loop-invariant code motion.

    Hoists pure ops whose operands are all defined outside an [scf.for]
    region to just before the loop.  In generated kernels this moves the
    constants, broadcasts of [dt]/[t]/parameters, and loop-invariant index
    arithmetic out of the per-cell loop, so the execution engine runs them
    once per kernel invocation instead of once per cell — the measurable
    analogue of the paper's in-tree LICM. *)

open Ir

let hoistable (o : Op.op) : bool =
  match o.Op.kind with
  | Op.ConstF _ | Op.ConstI _ | Op.BinF _ | Op.NegF | Op.BinI _ | Op.BinB _
  | Op.NotB | Op.CmpF _ | Op.Select | Op.SIToFP | Op.Math _ | Op.Broadcast
  | Op.Iota _ ->
      true
  | _ -> false (* loads stay put: a store in the loop may alias *)

module ISet = Set.Make (Int)

(* Hoist from one For op's body; returns hoisted ops (in order). *)
let hoist_from_loop (o : Op.op) : Op.op list =
  let region = o.Op.regions.(0) in
  (* values defined inside the region: block args + op results *)
  let inside = ref ISet.empty in
  List.iter
    (fun (a : Value.t) -> inside := ISet.add a.id !inside)
    region.Op.r_args;
  Op.iter_region
    (fun op ->
      Array.iter (fun (r : Value.t) -> inside := ISet.add r.id !inside) op.Op.results)
    region;
  let hoisted = ref [] in
  let rec fixpoint () =
    let moved = ref false in
    let keep =
      List.filter
        (fun (op : Op.op) ->
          if
            hoistable op
            && Array.for_all
                 (fun (v : Value.t) -> not (ISet.mem v.id !inside))
                 op.operands
          then begin
            hoisted := op :: !hoisted;
            Array.iter
              (fun (r : Value.t) -> inside := ISet.remove r.id !inside)
              op.results;
            moved := true;
            false
          end
          else true)
        region.Op.r_ops
    in
    region.Op.r_ops <- keep;
    if !moved then fixpoint ()
  in
  fixpoint ();
  List.rev !hoisted

let run_func (fn : Func.func) : bool =
  let changed = ref false in
  let rec go (r : Op.region) : unit =
    (* innermost loops first so inner-hoisted ops can hoist again *)
    List.iter (fun (o : Op.op) -> Array.iter go o.Op.regions) r.Op.r_ops;
    r.Op.r_ops <-
      List.concat_map
        (fun (o : Op.op) ->
          match o.Op.kind with
          | Op.For _ ->
              let hoisted = hoist_from_loop o in
              if hoisted <> [] then changed := true;
              hoisted @ [ o ]
          | _ -> [ o ])
        r.Op.r_ops
  in
  go fn.Func.f_body;
  !changed

let pass : Pass.t = { Pass.name = "licm"; run = run_func }
