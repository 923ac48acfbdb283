(** Pass framework.

    Passes transform functions in place (regions carry mutable op lists;
    individual ops are immutable records, so rewrites build new op records
    sharing the original result values).  A pipeline runs passes in order
    and can be asked to verify after each step — used by the test suite to
    catch passes that break the IR. *)

type t = { name : string; run : Ir.Func.func -> bool }
(** [run] returns true when it changed anything. *)

let run_on_module (p : t) (m : Ir.Func.modl) : bool =
  List.fold_left (fun changed f -> p.run f || changed) false m.Ir.Func.m_funcs

type pipeline_options = { verify_each : bool }

let default_options = { verify_each = false }

exception Verification_failed of string * Ir.Verifier.error list

(** Run a pipeline.  [validate] turns on translation validation: before
    each pass the module is deep-copied, and after the pass the callback
    receives [(pass_name, input, output)] — clients prove the two
    equivalent ({!Analysis.Transval.check_module}) and decide what to do
    with the resulting certificate. *)
let run_pipeline ?(options = default_options)
    ?(validate : (string -> Ir.Func.modl -> Ir.Func.modl -> unit) option)
    (passes : t list) (m : Ir.Func.modl) : unit =
  List.iter
    (fun p ->
      let snapshot =
        match validate with
        | Some _ -> Some (Ir.Func.copy_module m)
        | None -> None
      in
      Obs.Tracer.with_span ("pass:" ^ p.name) (fun () ->
          List.iter
            (fun f ->
              if p.run f then
                Obs.Tracer.count ("pass." ^ p.name ^ ".rewrites") 1.0)
            m.Ir.Func.m_funcs);
      (match (validate, snapshot) with
      | Some v, Some pre ->
          Obs.Tracer.with_span ("pass:validate:" ^ p.name) (fun () ->
              v p.name pre m)
      | _ -> ());
      if options.verify_each then
        Obs.Tracer.with_span "pass:verify" (fun () ->
            match Ir.Verifier.verify_module m with
            | [] -> ()
            | errs -> raise (Verification_failed (p.name, errs))))
    passes
