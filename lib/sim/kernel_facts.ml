(** Driver-side facts about generated kernels, packaged for the
    dataflow analyses.

    The compute kernel's parameter list is a fixed ABI
    ([start; stop; ncells_pad; dt; t; sv] followed by the external
    buffers and the per-plan (table, row) pairs — see
    {!Codegen.Kernel}).  This module classifies each position, says
    which buffers the driver's worker threads share, and builds interval
    seeds for the loop bounds — the ingredients the race checker
    ({!Racecheck}) needs to turn the generic analyses into
    kernel-specific proofs. *)

module K = Codegen.Kernel
module I = Analysis.Itv.I

type param_info =
  | Pstart
  | Pstop
  | Pncells  (** padded cell count *)
  | Pdt
  | Ptime
  | Psv  (** shared state buffer *)
  | Pext of int  (** shared external buffer [k] *)
  | Ptable of int  (** shared, read-only LUT table of plan [j] *)
  | Prow of int  (** per-thread LUT row scratch of plan [j] *)

let param_infos (gen : K.t) : param_info array =
  Array.of_list
    ([ Pstart; Pstop; Pncells; Pdt; Ptime; Psv ]
    @ List.mapi (fun k _ -> Pext k) gen.K.ext_order
    @ List.concat
        (List.mapi (fun j _ -> [ Ptable j; Prow j ]) gen.K.lut_plans))

(** Is the buffer behind this compute parameter shared between the
    driver's worker threads?  Row scratch buffers are per-thread;
    everything else (state, externals, tables) is one shared
    allocation. *)
let shared (infos : param_info array) (i : int) : bool =
  i >= Array.length infos
  || match infos.(i) with Prow _ -> false | _ -> true

(** Interval seeds for the compute function's scalar parameters.
    Without [range], [start] / [stop] cover every width-aligned chunk of
    [\[0, ncells_pad\]] (the facts {!Driver.compute_stage} guarantees
    for any thread count); with [range = (b, e)] they are the concrete
    bounds of one chunk. *)
let compute_seeds (gen : K.t) ~(ncells_pad : int) ?range
    (f : Ir.Func.func) : (Ir.Value.t * Analysis.Interval.v) list =
  let w = gen.K.cfg.Codegen.Config.width in
  match f.Ir.Func.f_params with
  | start :: stop :: ncells :: _ ->
      let start_i, stop_i =
        match range with
        | Some (b, e) -> (I.const b, I.const e)
        | None ->
            ( I.mk 0 (max 0 (ncells_pad - 1)) w 0,
              I.mk 0 ncells_pad w 0 )
      in
      [
        (start, Analysis.Interval.AI start_i);
        (stop, Analysis.Interval.AI stop_i);
        (ncells, Analysis.Interval.AI (I.const ncells_pad));
      ]
  | _ -> []

(** The compute function of a generated kernel module. *)
let compute_func (gen : K.t) : Ir.Func.func option =
  Ir.Func.find_func gen.K.modl K.compute_name
