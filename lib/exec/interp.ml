open Ir
(** Reference tree-walking interpreter.

    Deliberately simple and allocation-heavy: every op evaluates to a fresh
    {!Rt.v}.  Serves as the semantic oracle the batched and native
    engines are differentially tested against. *)

exception Interp_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Interp_error s)) fmt

type env = (int, Rt.v) Hashtbl.t

let get (env : env) (v : Value.t) : Rt.v =
  match Hashtbl.find_opt env v.id with
  | Some x -> x
  | None -> fail "undefined value %%%d" v.id

let set (env : env) (v : Value.t) (x : Rt.v) : unit = Hashtbl.replace env v.id x

let fbin_fn : Op.fbin -> float -> float -> float = function
  | Op.FAdd -> ( +. )
  | Op.FSub -> ( -. )
  | Op.FMul -> ( *. )
  | Op.FDiv -> ( /. )
  | Op.FMin -> Float.min
  | Op.FMax -> Float.max

let ibin_fn : Op.ibin -> int -> int -> int = function
  | Op.IAdd -> ( + )
  | Op.ISub -> ( - )
  | Op.IMul -> ( * )
  | Op.IDiv -> ( / )
  | Op.IRem -> ( mod )

let bbin_fn : Op.bbin -> bool -> bool -> bool = function
  | Op.BAnd -> ( && )
  | Op.BOr -> ( || )

let cmp_f : Op.cmp -> float -> float -> bool = function
  | Op.Lt -> ( < )
  | Op.Le -> ( <= )
  | Op.Gt -> ( > )
  | Op.Ge -> ( >= )
  | Op.Eq -> ( = )
  | Op.Ne -> ( <> )

let vf_map (g : float -> float) (a : floatarray) : floatarray =
  Float.Array.map g a

let vf_map2 (g : float -> float -> float) (a : floatarray) (b : floatarray) :
    floatarray =
  Float.Array.map2 g a b

let run ?(externs : Rt.registry = Rt.create_registry ()) (m : Func.modl)
    (fname : string) (args : Rt.v array) : Rt.v array =
  let rec run_func (f : Func.func) (args : Rt.v array) : Rt.v array =
    let env : env = Hashtbl.create 64 in
    List.iteri (fun k p -> set env p args.(k)) f.Func.f_params;
    match run_region env f.f_body with
    | `Return vs -> vs
    | `Yield _ -> fail "yield at function top level"
    | `Fallthrough -> fail "function body did not return"
  and run_region (env : env) (r : Op.region) :
      [ `Return of Rt.v array | `Yield of Rt.v array | `Fallthrough ] =
    let rec go = function
      | [] -> `Fallthrough
      | (o : Op.op) :: rest -> (
          match o.kind with
          | Op.Return -> `Return (Array.map (get env) o.operands)
          | Op.Yield -> `Yield (Array.map (get env) o.operands)
          | _ ->
              run_op env o;
              go rest)
    in
    go r.Op.r_ops
  and run_op (env : env) (o : Op.op) : unit =
    let v k = get env o.operands.(k) in
    let setr k x = set env o.results.(k) x in
    match o.kind with
    | Op.ConstF c -> setr 0 (Rt.F c)
    | Op.ConstI c -> setr 0 (Rt.I c)
    | Op.BinF k -> (
        let g = fbin_fn k in
        match (v 0, v 1) with
        | Rt.F a, Rt.F b -> setr 0 (Rt.F (g a b))
        | Rt.VF a, Rt.VF b -> setr 0 (Rt.VF (vf_map2 g a b))
        | _ -> fail "binf: bad operands")
    | Op.NegF -> (
        match v 0 with
        | Rt.F a -> setr 0 (Rt.F (-.a))
        | Rt.VF a -> setr 0 (Rt.VF (vf_map (fun x -> -.x) a))
        | _ -> fail "negf: bad operand")
    | Op.BinI k -> (
        let g = ibin_fn k in
        match (v 0, v 1) with
        | Rt.I a, Rt.I b -> setr 0 (Rt.I (g a b))
        | Rt.VI a, Rt.VI b -> setr 0 (Rt.VI (Array.map2 g a b))
        | _ -> fail "bini: bad operands")
    | Op.BinB k -> (
        let g = bbin_fn k in
        match (v 0, v 1) with
        | Rt.B a, Rt.B b -> setr 0 (Rt.B (g a b))
        | Rt.VB a, Rt.VB b -> setr 0 (Rt.VB (Array.map2 g a b))
        | _ -> fail "binb: bad operands")
    | Op.NotB -> (
        match v 0 with
        | Rt.B a -> setr 0 (Rt.B (not a))
        | Rt.VB a -> setr 0 (Rt.VB (Array.map not a))
        | _ -> fail "not: bad operand")
    | Op.CmpF c -> (
        let g = cmp_f c in
        match (v 0, v 1) with
        | Rt.F a, Rt.F b -> setr 0 (Rt.B (g a b))
        | Rt.VF a, Rt.VF b ->
            setr 0
              (Rt.VB
                 (Array.init (Float.Array.length a) (fun l ->
                      g (Float.Array.get a l) (Float.Array.get b l))))
        | _ -> fail "cmpf: bad operands")
    | Op.Select -> (
        match (v 0, v 1, v 2) with
        | Rt.B c, x, y -> setr 0 (if c then x else y)
        | Rt.VB c, Rt.VF x, Rt.VF y ->
            setr 0
              (Rt.VF
                 (Float.Array.init (Array.length c) (fun l ->
                      if c.(l) then Float.Array.get x l else Float.Array.get y l)))
        | Rt.VB c, Rt.VB x, Rt.VB y ->
            setr 0 (Rt.VB (Array.init (Array.length c) (fun l -> if c.(l) then x.(l) else y.(l))))
        | _ -> fail "select: bad operands")
    | Op.SIToFP -> (
        match v 0 with
        | Rt.I a -> setr 0 (Rt.F (float_of_int a))
        | Rt.VI a ->
            setr 0 (Rt.VF (Float.Array.init (Array.length a) (fun l -> float_of_int a.(l))))
        | _ -> fail "sitofp: bad operand")
    | Op.Math name -> (
        let bi =
          match Easyml.Builtins.find name with
          | Some bi -> bi
          | None -> fail "unknown builtin %s" name
        in
        match Array.map (v |> fun g k -> g k) (Array.init (Array.length o.operands) Fun.id) with
        | ops -> (
            match ops.(0) with
            | Rt.F _ ->
                let args = Array.map Rt.to_f ops in
                setr 0 (Rt.F (bi.eval args))
            | Rt.VF a0 ->
                let w = Float.Array.length a0 in
                let arrs = Array.map Rt.to_vf ops in
                setr 0
                  (Rt.VF
                     (Float.Array.init w (fun l ->
                          bi.eval (Array.map (fun a -> Float.Array.get a l) arrs))))
            | _ -> fail "math: bad operands"))
    | Op.Broadcast -> (
        match (v 0, o.results.(0).ty) with
        | Rt.F a, Ty.Vec (w, _) -> setr 0 (Rt.VF (Float.Array.make w a))
        | Rt.I a, Ty.Vec (w, _) -> setr 0 (Rt.VI (Array.make w a))
        | _ -> fail "broadcast: bad operand")
    | Op.VecLoad -> (
        match (v 0, v 1, o.results.(0).ty) with
        | Rt.M buf, Rt.I base, Ty.Vec (w, _) ->
            setr 0 (Rt.VF (Float.Array.init w (fun l -> Float.Array.get buf (base + l))))
        | _ -> fail "vector.load: bad operands")
    | Op.VecStore -> (
        match (v 0, v 1, v 2) with
        | Rt.VF x, Rt.M buf, Rt.I base ->
            Float.Array.iteri (fun l e -> Float.Array.set buf (base + l) e) x
        | _ -> fail "vector.store: bad operands")
    | Op.Gather -> (
        match (v 0, v 1) with
        | Rt.M buf, Rt.VI idx ->
            setr 0
              (Rt.VF
                 (Float.Array.init (Array.length idx) (fun l ->
                      Float.Array.get buf idx.(l))))
        | _ -> fail "vector.gather: bad operands")
    | Op.Scatter -> (
        match (v 0, v 1, v 2) with
        | Rt.VF x, Rt.M buf, Rt.VI idx ->
            Array.iteri (fun l j -> Float.Array.set buf j (Float.Array.get x l)) idx
        | _ -> fail "vector.scatter: bad operands")
    | Op.Iota w -> setr 0 (Rt.VI (Array.init w Fun.id))
    | Op.MemLoad -> (
        match (v 0, v 1) with
        | Rt.M buf, Rt.I k -> setr 0 (Rt.F (Float.Array.get buf k))
        | _ -> fail "memref.load: bad operands")
    | Op.MemStore -> (
        match (v 0, v 1, v 2) with
        | Rt.F x, Rt.M buf, Rt.I k -> Float.Array.set buf k x
        | _ -> fail "memref.store: bad operands")
    | Op.For _ -> (
        match (v 0, v 1, v 2) with
        | Rt.I lb, Rt.I ub, Rt.I step ->
            let inits =
              Array.sub o.operands 3 (Array.length o.operands - 3)
              |> Array.map (get env)
            in
            let region = o.regions.(0) in
            let iv, iter_args =
              match region.Op.r_args with
              | iv :: rest -> (iv, rest)
              | [] -> fail "scf.for: missing induction arg"
            in
            let iters = ref inits in
            let k = ref lb in
            while !k < ub do
              set env iv (Rt.I !k);
              List.iteri (fun j a -> set env a !iters.(j)) iter_args;
              (match run_region env region with
              | `Yield vs -> iters := vs
              | `Return _ -> fail "return inside scf.for"
              | `Fallthrough -> fail "scf.for body missing yield");
              k := !k + step
            done;
            Array.iteri (fun j r -> set env r !iters.(j)) o.results
        | _ -> fail "scf.for: bad bounds")
    | Op.Call name -> (
        let args = Array.map (get env) o.operands in
        let rets =
          match Func.find_func m name with
          | Some callee -> run_func callee args
          | None -> (Rt.lookup externs name) args
        in
        Array.iteri (fun j r -> set env r rets.(j)) o.results)
    | Op.Yield | Op.Return -> assert false
  in
  match Func.find_func m fname with
  | Some f -> run_func f args
  | None -> fail "unknown function @%s" fname
