(** Functions and modules.

    A module holds the functions produced by code generation (the per-model
    [compute] kernel, the lookup-table initializers) plus the signatures of
    the runtime (extern) functions they call — the analogue of openCARP's
    [LUT_interpRow] and the SVML-style vector math entry points. *)

type extern_sig = {
  e_name : string;
  e_params : Ty.t list;
  e_results : Ty.t list;
}

type func = {
  f_name : string;
  f_params : Value.t list;
  f_results : Ty.t list;
  f_body : Op.region;
}

type modl = {
  m_name : string;
  mutable m_funcs : func list;
  mutable m_externs : extern_sig list;
}

let create_module (name : string) : modl =
  { m_name = name; m_funcs = []; m_externs = [] }

let add_func (m : modl) (f : func) : unit = m.m_funcs <- m.m_funcs @ [ f ]

let declare_extern (m : modl) (e : extern_sig) : unit =
  if not (List.exists (fun x -> x.e_name = e.e_name) m.m_externs) then
    m.m_externs <- m.m_externs @ [ e ]

let find_func (m : modl) (name : string) : func option =
  List.find_opt (fun f -> f.f_name = name) m.m_funcs

let find_extern (m : modl) (name : string) : extern_sig option =
  List.find_opt (fun e -> e.e_name = name) m.m_externs

(** Callee signature as seen by the verifier: a local function or an extern. *)
let callee_sig (m : modl) (name : string) : (Ty.t list * Ty.t list) option =
  match find_func m name with
  | Some f -> Some (List.map (fun v -> v.Value.ty) f.f_params, f.f_results)
  | None -> (
      match find_extern m name with
      | Some e -> Some (e.e_params, e.e_results)
      | None -> None)

let op_count (f : func) : int = Op.count_ops f.f_body

(* -- deep copy ------------------------------------------------------- *)

(* Fresh op records with fresh operand/result arrays (passes mutate
   region op lists and operand arrays in place, so snapshots for
   validation must not alias the source).  Value records are immutable
   and stay shared. *)
let rec copy_region (r : Op.region) : Op.region =
  { Op.r_args = r.Op.r_args; r_ops = List.map copy_op r.Op.r_ops }

and copy_op (o : Op.op) : Op.op =
  {
    o with
    Op.operands = Array.copy o.Op.operands;
    results = Array.copy o.Op.results;
    regions = Array.map copy_region o.Op.regions;
  }

let copy_func (f : func) : func = { f with f_body = copy_region f.f_body }

let copy_module (m : modl) : modl =
  {
    m_name = m.m_name;
    m_funcs = List.map copy_func m.m_funcs;
    m_externs = m.m_externs;
  }
