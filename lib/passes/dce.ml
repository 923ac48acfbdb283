(** Dead-code elimination.

    Removes side-effect-free ops whose results are never used.  Loads count
    as removable (reading memory has no observable effect); stores, calls
    and loops are kept.  Runs to a fixpoint so chains of dead ops disappear
    in one pass invocation. *)

open Ir

let removable (o : Op.op) : bool =
  match o.Op.kind with
  | Op.MemStore | Op.VecStore | Op.Scatter | Op.Call _ | Op.Return | Op.Yield
  | Op.For _ ->
      false
  | Op.ConstF _ | Op.ConstI _ | Op.BinF _ | Op.NegF | Op.BinI _ | Op.BinB _
  | Op.NotB | Op.CmpF _ | Op.Select | Op.SIToFP | Op.Math _ | Op.Broadcast
  | Op.Iota _ | Op.VecLoad | Op.MemLoad | Op.Gather ->
      true

let sweep_once (f : Func.func) : bool =
  let used = Rewrite.use_counts f.Func.f_body in
  let is_used (v : Value.t) =
    Option.value ~default:0 (Hashtbl.find_opt used v.id) > 0
  in
  let changed = ref false in
  let rec go (r : Op.region) : unit =
    let ops' =
      List.filter
        (fun (o : Op.op) ->
          Array.iter go o.Op.regions;
          if removable o && not (Array.exists is_used o.results) then begin
            changed := true;
            false
          end
          else true)
        r.Op.r_ops
    in
    r.Op.r_ops <- ops'
  in
  go f.Func.f_body;
  !changed

let run_func (f : Func.func) : bool =
  let changed = ref false in
  while sweep_once f do
    changed := true
  done;
  !changed

let pass : Pass.t = { Pass.name = "dce"; run = run_func }
