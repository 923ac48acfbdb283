(** Shared rewriting utilities for passes. *)

open Ir

(** New op with operands mapped through [f]; results and regions shared. *)
let map_operands (f : Value.t -> Value.t) (o : Op.op) : Op.op =
  { o with Op.operands = Array.map f o.operands }

(** A value substitution accumulated during a forward walk. Substitutions
    chase chains ([a -> b], [b -> c] resolves [a] to [c]). *)
type subst = (int, Value.t) Hashtbl.t

let create_subst () : subst = Hashtbl.create 32

let rec resolve (s : subst) (v : Value.t) : Value.t =
  match Hashtbl.find_opt s v.id with
  | Some v' when v'.Value.id <> v.id -> resolve s v'
  | _ -> v

let add_subst (s : subst) ~(from : Value.t) ~(to_ : Value.t) : unit =
  Hashtbl.replace s from.id to_

(** Count value uses across a whole function body, including nested
    regions. *)
let use_counts (fbody : Op.region) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Op.iter_region
    (fun o ->
      Array.iter
        (fun (v : Value.t) ->
          Hashtbl.replace tbl v.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v.id)))
        o.Op.operands)
    fbody;
  tbl
