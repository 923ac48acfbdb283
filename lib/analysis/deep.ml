(** Deep verification: structural checks plus a footprint sanity check.

    The plain {!Ir.Verifier} checks types, arities and SSA structure.
    Deep mode adds the interval-powered footprint ({!Footprint}): an
    access whose index interval is {e entirely} negative can never be in
    bounds — a definite out-of-bounds error.  Possible-OOB is not
    reported: buffer lengths are a caller contract, and every engine
    checks those accesses at run time.

    Lives in the analysis library rather than in [Ir.Verifier] because
    the dependency points this way: the verifier cannot depend on the
    analyses built on top of the IR. *)

open Ir
module I = Itv.I

let footprint_errors (f : Func.func) : Verifier.error list =
  let _, accs = Footprint.of_func f in
  List.filter_map
    (fun (a : Footprint.access) ->
      let itv = a.Footprint.acc_itv in
      if I.is_bot itv || itv.I.hi >= 0 then None
      else
        Some
          {
            Verifier.in_func = f.Func.f_name;
            op = Op.kind_name a.Footprint.acc_op.Op.kind;
            msg =
              Fmt.str "access indices %a are definitely out of bounds" I.pp itv;
          })
    accs

(** Structural verification plus footprint sanity over every function
    of the module. *)
let verify_module (m : Func.modl) : Verifier.error list =
  match Verifier.verify_module m with
  | [] ->
      (* the footprint check assumes structurally-sound IR *)
      List.concat_map footprint_errors m.Func.m_funcs
  | structural -> structural

let verify_module_exn (m : Func.modl) : unit =
  match verify_module m with
  | [] -> ()
  | errs -> failwith (Verifier.errors_to_string errs)
