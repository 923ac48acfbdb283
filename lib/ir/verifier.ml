(** IR verifier.

    Checks, for every op in every function of a module:
    - SSA: each value is defined exactly once, and every use is dominated by
      its definition (here: defined earlier in the same region or in an
      enclosing region — single-block regions make dominance lexical);
    - typing: operand/result types obey the rules documented in {!Op};
    - structure: [scf.for] regions are terminated by [scf.yield] with
      types matching the loop-carried values, and [func.call] matches the
      callee signature. *)

type error = { in_func : string; op : string; msg : string }

let pp_error ppf (e : error) =
  Fmt.pf ppf "verifier: in @%s, %s: %s" e.in_func e.op e.msg

exception Failed of error list

module ISet = Set.Make (Int)

let verify_func ?(modl : Func.modl option) (f : Func.func) : error list =
  let errors = ref [] in
  let err op fmt =
    Fmt.kstr
      (fun msg ->
        errors :=
          { in_func = f.Func.f_name; op = Op.kind_name op.Op.kind; msg }
          :: !errors)
      fmt
  in
  let defined = ref ISet.empty in
  let define op (v : Value.t) =
    if ISet.mem v.id !defined then err op "value %%%d defined twice" v.id
    else defined := ISet.add v.id !defined
  in
  let check_use op (v : Value.t) =
    if not (ISet.mem v.id !defined) then
      err op "use of value %%%d before its definition" v.id
  in
  let tys vs = Array.to_list vs |> List.map (fun (v : Value.t) -> v.Value.ty) in
  let expect_op op what cond = if not cond then err op "%s" what in
  let float_like op (v : Value.t) =
    expect_op op
      (Fmt.str "expected float-like operand, got %a" Ty.pp v.ty)
      (Ty.is_float_like v.ty)
  in
  let same_shape op (a : Value.t) (b : Value.t) =
    expect_op op
      (Fmt.str "operand types differ: %a vs %a" Ty.pp a.ty Ty.pp b.ty)
      (Ty.equal a.ty b.ty)
  in
  let rec check_region ~(enclosing : ISet.t) (r : Op.region) ~(yield_tys : Ty.t list option) =
    let saved = !defined in
    defined := ISet.union enclosing saved;
    List.iter (fun (a : Value.t) -> defined := ISet.add a.id !defined) r.Op.r_args;
    let n = List.length r.Op.r_ops in
    List.iteri
      (fun i (op : Op.op) ->
        Array.iter (check_use op) op.operands;
        check_op op;
        Array.iter (define op) op.results;
        match op.kind with
        | Op.Yield -> (
            if i <> n - 1 then err op "yield must be the last op of its region";
            match yield_tys with
            | None -> err op "yield outside of an scf region"
            | Some expected ->
                if tys op.operands <> expected then
                  err op "yield types do not match enclosing op results")
        | _ -> ())
      r.Op.r_ops;
    (match (yield_tys, List.rev r.Op.r_ops) with
    | Some _, { Op.kind = Op.Yield; _ } :: _ -> ()
    | Some _, _ ->
        errors :=
          { in_func = f.Func.f_name; op = "region"; msg = "missing scf.yield terminator" }
          :: !errors
    | None, _ -> ());
    defined := saved
  and check_op (op : Op.op) =
    let o = op.operands and r = op.results in
    let nop = Array.length o and nres = Array.length r in
    let arity k l =
      expect_op op (Fmt.str "expected %d operands, got %d" k nop) (nop = k);
      expect_op op (Fmt.str "expected %d results, got %d" l nres) (nres = l)
    in
    match op.kind with
    | Op.ConstF _ ->
        arity 0 1;
        if nres = 1 then
          expect_op op "constant result must be f64" (Ty.equal r.(0).ty Ty.F64)
    | Op.ConstI _ ->
        arity 0 1;
        if nres = 1 then
          expect_op op "constant result must be i64" (Ty.equal r.(0).ty Ty.I64)
    | Op.BinF _ ->
        arity 2 1;
        if nop = 2 && nres = 1 then begin
          float_like op o.(0);
          same_shape op o.(0) o.(1);
          same_shape op o.(0) r.(0)
        end
    | Op.NegF ->
        arity 1 1;
        if nop = 1 && nres = 1 then begin
          float_like op o.(0);
          same_shape op o.(0) r.(0)
        end
    | Op.BinI _ ->
        arity 2 1;
        if nop = 2 && nres = 1 then begin
          expect_op op "expected i64 operands" (Ty.is_int_like o.(0).ty);
          same_shape op o.(0) o.(1);
          same_shape op o.(0) r.(0)
        end
    | Op.BinB _ ->
        arity 2 1;
        if nop = 2 && nres = 1 then begin
          expect_op op "expected i1 operands" (Ty.is_bool_like o.(0).ty);
          same_shape op o.(0) o.(1);
          same_shape op o.(0) r.(0)
        end
    | Op.NotB ->
        arity 1 1;
        if nop = 1 && nres = 1 then begin
          expect_op op "expected i1 operand" (Ty.is_bool_like o.(0).ty);
          same_shape op o.(0) r.(0)
        end
    | Op.CmpF _ ->
        arity 2 1;
        if nop = 2 && nres = 1 then begin
          float_like op o.(0);
          same_shape op o.(0) o.(1);
          expect_op op "cmpf result must be i1-like of same width"
            (Ty.equal r.(0).ty (Ty.like ~like:o.(0).ty Ty.I1))
        end
    | Op.Select ->
        arity 3 1;
        if nop = 3 && nres = 1 then begin
          expect_op op "select condition must be i1-like" (Ty.is_bool_like o.(0).ty);
          expect_op op "select arms must be f64- or i1-like"
            (Ty.is_float_like o.(1).ty || Ty.is_bool_like o.(1).ty);
          same_shape op o.(1) o.(2);
          same_shape op o.(1) r.(0);
          expect_op op "select width mismatch"
            (Ty.width o.(0).ty = Ty.width o.(1).ty)
        end
    | Op.SIToFP ->
        arity 1 1;
        if nop = 1 && nres = 1 then
          expect_op op "sitofp: i64-like -> f64-like"
            (Ty.is_int_like o.(0).ty
            && Ty.equal r.(0).ty (Ty.like ~like:o.(0).ty Ty.F64))
    | Op.Math name -> (
        match Easyml.Builtins.find name with
        | None -> err op "unknown math builtin %s" name
        | Some bi ->
            arity bi.arity 1;
            if nop = bi.arity && nres = 1 then begin
              Array.iter (float_like op) o;
              Array.iter (same_shape op r.(0)) o
            end)
    | Op.Broadcast ->
        arity 1 1;
        if nop = 1 && nres = 1 then
          expect_op op "broadcast: f64 or i64 scalar -> vector of it"
            ((Ty.equal o.(0).ty Ty.F64 || Ty.equal o.(0).ty Ty.I64)
            &&
            match r.(0).ty with
            | Ty.Vec (_, e) -> Ty.equal e o.(0).ty
            | _ -> false)
    | Op.VecLoad ->
        arity 2 1;
        if nop = 2 && nres = 1 then
          expect_op op "vector.load: (memref, i64) -> vector<wxf64>"
            (Ty.equal o.(0).ty Ty.Memref
            && Ty.equal o.(1).ty Ty.I64
            && match r.(0).ty with Ty.Vec (_, Ty.F64) -> true | _ -> false)
    | Op.VecStore ->
        arity 3 0;
        if nop = 3 then
          expect_op op "vector.store: (vector<wxf64>, memref, i64)"
            ((match o.(0).ty with Ty.Vec (_, Ty.F64) -> true | _ -> false)
            && Ty.equal o.(1).ty Ty.Memref
            && Ty.equal o.(2).ty Ty.I64)
    | Op.Gather ->
        arity 2 1;
        if nop = 2 && nres = 1 then
          expect_op op "vector.gather: (memref, vector<wxi64>) -> vector<wxf64>"
            (Ty.equal o.(0).ty Ty.Memref
            &&
            match (o.(1).ty, r.(0).ty) with
            | Ty.Vec (w1, Ty.I64), Ty.Vec (w2, Ty.F64) -> w1 = w2
            | _ -> false)
    | Op.Scatter ->
        arity 3 0;
        if nop = 3 then
          expect_op op "vector.scatter: (vector<wxf64>, memref, vector<wxi64>)"
            (match (o.(0).ty, o.(2).ty) with
            | Ty.Vec (w1, Ty.F64), Ty.Vec (w2, Ty.I64) ->
                w1 = w2 && Ty.equal o.(1).ty Ty.Memref
            | _ -> false)
    | Op.Iota w ->
        arity 0 1;
        if nres = 1 then
          expect_op op "vector.step result must be vector<wxi64>"
            (Ty.equal r.(0).ty (Ty.Vec (w, Ty.I64)))
    | Op.MemLoad ->
        arity 2 1;
        if nop = 2 && nres = 1 then
          expect_op op "memref.load: (memref, i64) -> f64"
            (Ty.equal o.(0).ty Ty.Memref
            && Ty.equal o.(1).ty Ty.I64
            && Ty.equal r.(0).ty Ty.F64)
    | Op.MemStore ->
        arity 3 0;
        if nop = 3 then
          expect_op op "memref.store: (f64, memref, i64)"
            (Ty.equal o.(0).ty Ty.F64
            && Ty.equal o.(1).ty Ty.Memref
            && Ty.equal o.(2).ty Ty.I64)
    | Op.For _ ->
        expect_op op "scf.for needs at least (lb, ub, step)" (nop >= 3);
        expect_op op "scf.for needs exactly one region"
          (Array.length op.regions = 1);
        if nop >= 3 && Array.length op.regions = 1 then begin
          expect_op op "scf.for bounds must be i64"
            (Ty.equal o.(0).ty Ty.I64 && Ty.equal o.(1).ty Ty.I64
           && Ty.equal o.(2).ty Ty.I64);
          let iter_tys =
            Array.sub o 3 (nop - 3) |> tys
          in
          expect_op op "scf.for results must match iter operands"
            (tys r = iter_tys);
          let region = op.regions.(0) in
          (match region.Op.r_args with
          | iv :: rest ->
              expect_op op "scf.for induction variable must be i64"
                (Ty.equal iv.Value.ty Ty.I64);
              expect_op op "scf.for block args must match iter operands"
                (List.map (fun (v : Value.t) -> v.ty) rest = iter_tys)
          | [] -> err op "scf.for region needs an induction argument");
          check_region ~enclosing:!defined region ~yield_tys:(Some iter_tys)
        end
    | Op.Yield -> () (* checked by the enclosing region *)
    | Op.Call name -> (
        match modl with
        | None -> ()
        | Some m -> (
            match Func.callee_sig m name with
            | None -> err op "call to unknown function @%s" name
            | Some (ptys, rtys) ->
                expect_op op "call argument types do not match signature"
                  (tys o = ptys);
                expect_op op "call result types do not match signature"
                  (tys r = rtys)))
    | Op.Return ->
        if tys o <> f.Func.f_results then
          err op "return types do not match function signature"
  in
  List.iter (fun (a : Value.t) -> defined := ISet.add a.id !defined) f.f_params;
  (* the function body is not an scf region: no yield check, must end in
     return (checked by the builder); we still validate op structure. *)
  let n = List.length f.f_body.Op.r_ops in
  List.iteri
    (fun i (op : Op.op) ->
      Array.iter (check_use op) op.operands;
      check_op op;
      Array.iter (define op) op.results;
      match op.kind with
      | Op.Yield ->
          errors :=
            { in_func = f.Func.f_name; op = "scf.yield"; msg = "yield at function top level" }
            :: !errors
      | Op.Return when i <> n - 1 ->
          errors :=
            { in_func = f.Func.f_name; op = "func.return"; msg = "return must be last" }
            :: !errors
      | _ -> ())
    f.f_body.Op.r_ops;
  List.rev !errors

let verify_module (m : Func.modl) : error list =
  List.concat_map (verify_func ~modl:m) m.Func.m_funcs

(** Raise {!Failed} if the module does not verify. *)
let verify_module_exn (m : Func.modl) : unit =
  match verify_module m with [] -> () | errs -> raise (Failed errs)

let errors_to_string (errs : error list) : string =
  String.concat "\n" (List.map (Fmt.str "%a" pp_error) errs)
