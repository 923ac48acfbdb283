(** MLIR-style textual printer.

    Output resembles the paper's Listing 3: SSA names are [%N], ops are
    printed as [dialect.op] with a trailing type annotation, and structured
    control flow indents its regions. *)

let pp_operands ppf (ops : Value.t array) =
  Fmt.array ~sep:(Fmt.any ", ") Value.pp ppf ops

let result_prefix ppf (results : Value.t array) =
  if Array.length results > 0 then
    Fmt.pf ppf "%a = " (Fmt.array ~sep:(Fmt.any ", ") Value.pp) results

let op_types (o : Op.op) : string =
  let tys vs =
    Array.to_list vs
    |> List.map (fun (v : Value.t) -> Ty.to_string v.ty)
    |> String.concat ", "
  in
  match (Array.length o.operands, Array.length o.results) with
  | 0, 0 -> ""
  | _, 0 -> " : (" ^ tys o.operands ^ ") -> ()"
  | 0, _ -> " : " ^ tys o.results
  | _, _ -> " : (" ^ tys o.operands ^ ") -> " ^ tys o.results

let rec pp_op (indent : int) ppf (o : Op.op) =
  let pad = String.make indent ' ' in
  match o.kind with
  | Op.ConstF f ->
      Fmt.pf ppf "%s%aarith.constant %.17g : f64@," pad result_prefix o.results f
  | Op.ConstI i ->
      Fmt.pf ppf "%s%aarith.constant %d : i64@," pad result_prefix o.results i
  | Op.CmpF c ->
      Fmt.pf ppf "%s%aarith.cmpf %s, %a : %a@," pad result_prefix o.results
        (Op.cmp_name c) pp_operands o.operands Ty.pp o.operands.(0).ty
  | Op.For { parallel } ->
      let lb = o.operands.(0) and ub = o.operands.(1) and step = o.operands.(2) in
      let inits = Array.sub o.operands 3 (Array.length o.operands - 3) in
      let region = o.regions.(0) in
      let iv, iters =
        match region.Op.r_args with
        | iv :: rest -> (iv, rest)
        | [] -> assert false
      in
      Fmt.pf ppf "%s%a%s %a = %a to %a step %a" pad result_prefix o.results
        (if parallel then "scf.parallel" else "scf.for")
        Value.pp iv Value.pp lb Value.pp ub Value.pp step;
      if iters <> [] then
        Fmt.pf ppf " iter_args(%a = %a)"
          (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
          iters
          (Fmt.array ~sep:(Fmt.any ", ") Value.pp)
          inits;
      Fmt.pf ppf " {@,";
      pp_region (indent + 2) ppf region;
      Fmt.pf ppf "%s}@," pad
  | _ ->
      Fmt.pf ppf "%s%a%s %a%s@," pad result_prefix o.results
        (Op.kind_name o.kind) pp_operands o.operands (op_types o)

and pp_region (indent : int) ppf (r : Op.region) =
  List.iter (pp_op indent ppf) r.Op.r_ops

let pp_func ppf (f : Func.func) =
  Fmt.pf ppf "@[<v>func.func @%s(%a) -> (%a) {@," f.Func.f_name
    (Fmt.list ~sep:(Fmt.any ", ") Value.pp_typed)
    f.f_params
    (Fmt.list ~sep:(Fmt.any ", ") Ty.pp)
    f.f_results;
  pp_region 2 ppf f.f_body;
  Fmt.pf ppf "}@]"

let pp_module ppf (m : Func.modl) =
  Fmt.pf ppf "@[<v>module @%s {@," m.Func.m_name;
  List.iter
    (fun (e : Func.extern_sig) ->
      Fmt.pf ppf "  func.func private @%s(%a) -> (%a)@," e.e_name
        (Fmt.list ~sep:(Fmt.any ", ") Ty.pp)
        e.e_params
        (Fmt.list ~sep:(Fmt.any ", ") Ty.pp)
        e.e_results)
    m.m_externs;
  List.iter (fun f -> Fmt.pf ppf "  @[<v>%a@]@," pp_func f) m.m_funcs;
  Fmt.pf ppf "}@]"

let func_to_string (f : Func.func) : string = Fmt.str "%a" pp_func f
let module_to_string (m : Func.modl) : string = Fmt.str "%a" pp_module m
