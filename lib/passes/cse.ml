(** Common-subexpression elimination.

    The frontend inlines intermediate definitions into derivative
    expressions (so integrators can substitute the state variable), which
    duplicates rate expressions; CSE recovers the sharing, exactly the role
    the paper assigns to the in-tree MLIR CSE pass.

    Scope: pure, side-effect-free ops (constants, arith, math, broadcasts).
    Loads are not eliminated — stores may intervene.  Tables are scoped:
    expressions available in an enclosing region are reused inside nested
    regions, not vice versa. *)

open Ir

(* Structural key: op kind + resolved operand ids.  [Op.kind] is a plain
   variant (floats included) so polymorphic equality/hashing is fine. *)
type key = Op.kind * int list

let cse_able (o : Op.op) : bool =
  match o.Op.kind with
  | Op.ConstF _ | Op.ConstI _ | Op.BinF _ | Op.NegF | Op.BinI _ | Op.BinB _
  | Op.NotB | Op.CmpF _ | Op.Select | Op.SIToFP | Op.Math _ | Op.Broadcast
  | Op.Iota _ ->
      true
  | _ -> false

let run_func (f : Func.func) : bool =
  let changed = ref false in
  let subst = Rewrite.create_subst () in
  let rec go (avail : (key, Value.t array) Hashtbl.t) (r : Op.region) : unit =
    let ops' =
      List.filter_map
        (fun (o : Op.op) ->
          let o = Rewrite.map_operands (Rewrite.resolve subst) o in
          if Array.length o.Op.regions > 0 then begin
            (* nested regions see a scoped copy of the table *)
            Array.iter (fun reg -> go (Hashtbl.copy avail) reg) o.Op.regions;
            Some o
          end
          else if cse_able o then begin
            let key =
              ( o.Op.kind,
                Array.to_list o.operands |> List.map (fun (v : Value.t) -> v.id)
              )
            in
            match Hashtbl.find_opt avail key with
            | Some prior ->
                Array.iteri
                  (fun k res ->
                    Rewrite.add_subst subst ~from:res ~to_:prior.(k))
                  o.results;
                changed := true;
                None
            | None ->
                Hashtbl.replace avail key o.results;
                Some o
          end
          else Some o)
        r.Op.r_ops
    in
    r.Op.r_ops <- ops'
  in
  go (Hashtbl.create 64) f.Func.f_body;
  !changed

let pass : Pass.t = { Pass.name = "cse"; run = run_func }
