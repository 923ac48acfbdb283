(** Deep verification: structural checks plus dataflow sanity.

    The plain {!Ir.Verifier} checks types, arities and SSA structure.
    Deep mode layers the analyses on top:

    - definite-initialization of local allocs ({!Meminit}): a read that
      may precede every write on some path is an error;
    - footprint sanity: an access whose index interval is {e entirely}
      negative, or entirely past the end of a constant-sized local
      alloc, can never be in bounds — a definite out-of-bounds error
      (possible-OOB is not reported: parameter buffer lengths are a
      caller contract, and every engine checks those accesses at run
      time).

    Lives in the analysis library rather than in [Ir.Verifier] because
    the dependency points this way: the verifier cannot depend on the
    analyses built on top of the IR. *)

open Ir
module I = Itv.I

(* Constant alloc sizes, by alloc op id. *)
let alloc_sizes (st : Interval.state) (f : Func.func) : (int, int) Hashtbl.t =
  let sizes = Hashtbl.create 8 in
  Op.iter_region
    (fun o ->
      match o.Op.kind with
      | Op.Alloc ->
          let sz = Interval.int_itv st o.Op.operands.(0) in
          if I.is_const sz then Hashtbl.replace sizes o.Op.o_id sz.I.lo
      | _ -> ())
    f.Func.f_body;
  sizes

let footprint_errors (f : Func.func) : Verifier.error list =
  let st, accs = Footprint.of_func f in
  let sizes = alloc_sizes st f in
  List.filter_map
    (fun (a : Footprint.access) ->
      let itv = a.Footprint.acc_itv in
      if I.is_bot itv then None
      else
        let definite_oob =
          itv.I.hi < 0
          ||
          match a.Footprint.acc_origin with
          | Interval.Oalloc id -> (
              match Hashtbl.find_opt sizes id with
              | Some n -> itv.I.lo > n - 1
              | None -> false)
          | _ -> false
        in
        if definite_oob then
          Some
            {
              Verifier.in_func = f.Func.f_name;
              op = Op.kind_name a.Footprint.acc_op.Op.kind;
              msg =
                Fmt.str "access indices %a are definitely out of bounds" I.pp
                  itv;
            }
        else None)
    accs

let meminit_errors (f : Func.func) : Verifier.error list =
  List.map
    (fun (i : Meminit.issue) ->
      {
        Verifier.in_func = f.Func.f_name;
        op = Op.kind_name i.Meminit.mi_op.Op.kind;
        msg = i.Meminit.mi_msg;
      })
    (Meminit.check_func f)

(** Structural verification plus use-before-def and footprint sanity
    over every function of the module. *)
let verify_module (m : Func.modl) : Verifier.error list =
  let structural = Verifier.verify_module m in
  let dataflow =
    (* dataflow checks assume structurally-sound IR *)
    if structural <> [] then []
    else
      List.concat_map
        (fun f -> meminit_errors f @ footprint_errors f)
        m.Func.m_funcs
  in
  structural @ dataflow

let verify_module_exn (m : Func.modl) : unit =
  match verify_module m with
  | [] -> ()
  | errs -> failwith (Verifier.errors_to_string errs)
