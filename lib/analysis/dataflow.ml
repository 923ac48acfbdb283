(** Forward dataflow framework over the structured SSA IR.

    The IR has no CFG — its only control flow is [scf.for], whose body
    is a single-block region — so instead of a worklist over basic
    blocks the solver walks the region tree:

    - straight-line ops apply the client's transfer function once;
    - [scf.for] seeds the induction variable from the client's
      [loop_iv] hook, then iterates the body to a fixpoint on the
      loop-carried values ([max_rounds] rounds, joining each round's
      yields into the iter slots); if still unstable it widens and runs
      one final stabilizing round.

    Because every loop nest is depth-bounded and each carried value
    climbs a finite-height lattice (widening cuts infinite ascent), the
    walk terminates.  After convergence an optional [visit] hook replays
    the whole function once on the stable environment — that is where
    clients that *collect* facts (footprints, proved-bounds sets) hook
    in, so they only ever see post-fixpoint values. *)

open Ir

module type DOMAIN = sig
  type v

  val top : v
  val is_bot : v -> bool
  (** [is_bot v] means no concrete value reaches here (unreachable). *)

  val join : v -> v -> v
  val widen : v -> v -> v
  (** [widen old next] must reach a fixed point in finitely many steps;
      jumping straight to [top] is always sound. *)

  val equal : v -> v -> bool
  val pp : v Fmt.t
end

module type CLIENT = sig
  include DOMAIN

  type ctx
  (** Client context threaded through transfer (e.g. the module, extern
      length info, seeds). *)

  val param : ctx -> int -> Value.t -> v
  (** Initial abstract value of the [i]-th function parameter. *)

  val transfer : ctx -> get:(Value.t -> v) -> Op.op -> v array
  (** Abstract results of a non-structural op ([For]/[Yield]/[Return]
      never reach here).  Must return one value per result. *)

  val loop_iv : ctx -> lb:v -> ub:v -> step:v -> v
  (** Abstract induction variable for a loop over [\[lb, ub)] by [step].
      Return a bottom value iff the loop provably never executes. *)
end

module Make (C : CLIENT) = struct
  type state = { tbl : (int, C.v) Hashtbl.t; ctx : C.ctx }

  let get (st : state) (v : Value.t) : C.v =
    match Hashtbl.find_opt st.tbl v.Value.id with Some x -> x | None -> C.top

  let set (st : state) (v : Value.t) (x : C.v) : unit =
    Hashtbl.replace st.tbl v.Value.id x

  let max_rounds = 4

  (* Returns the abstract operands of the region's [Yield] (empty array
     if the region has none, e.g. a function body ending in Return). *)
  let rec analyze_region (st : state) ~visit (r : Op.region) : C.v array =
    let yields = ref [||] in
    List.iter
      (fun (o : Op.op) ->
        (match o.kind with
        | Op.For _ -> analyze_for st ~visit o
        | Op.Yield -> yields := Array.map (get st) o.operands
        | Op.Return -> ()
        | _ ->
            let rs = C.transfer st.ctx ~get:(get st) o in
            Array.iteri (fun i res -> set st res rs.(i)) o.results);
        match visit with Some f -> f st o | None -> ())
      r.r_ops;
    !yields

  and analyze_for (st : state) ~visit (o : Op.op) : unit =
    let lb = get st o.operands.(0)
    and ub = get st o.operands.(1)
    and step = get st o.operands.(2) in
    let n_iters = Array.length o.operands - 3 in
    let body = o.regions.(0) in
    let iv, iters =
      match body.r_args with
      | iv :: iters -> (iv, Array.of_list iters)
      | [] -> invalid_arg "dataflow: for-region without induction variable"
    in
    let init i = get st o.operands.(3 + i) in
    let ivv = C.loop_iv st.ctx ~lb ~ub ~step in
    if C.is_bot ivv then
      (* provably zero iterations: results are the inits, body is dead *)
      Array.iteri (fun i res -> set st res (init i)) o.results
    else begin
      set st iv ivv;
      Array.iteri (fun i it -> set st it (init i)) iters;
      let final_yields = ref [||] in
      let run_body ~visit = final_yields := analyze_region st ~visit body in
      let apply_yields combine =
        let changed = ref false in
        let ys = !final_yields in
        if Array.length ys = n_iters then
          Array.iteri
            (fun i it ->
              let cur = get st it in
              let next = combine cur ys.(i) in
              if not (C.equal cur next) then begin
                changed := true;
                set st it next
              end)
            iters;
        !changed
      in
      let rec fix round =
        run_body ~visit:None;
        if apply_yields C.join then
          if round + 1 < max_rounds then fix (round + 1)
          else begin
            (* widen the survivors and stabilize with one more round *)
            ignore (apply_yields C.widen);
            run_body ~visit:None;
            ignore (apply_yields C.join)
          end
      in
      fix 0;
      (* replay once on the stable environment so [visit] sees final facts *)
      run_body ~visit;
      (* results: yields if the loop ran, inits if it was empty — we can't
         always tell which, so join *)
      let ys = !final_yields in
      Array.iteri
        (fun i res ->
          let v =
            if Array.length ys = n_iters then C.join (init i) ys.(i)
            else C.top
          in
          set st res v)
        o.results
    end

  (** Analyze a function body to fixpoint.  [seed] overrides the abstract
      value of specific SSA values (typically parameters) after the
      client's [param] defaults are installed.  [visit] fires once per op
      on the converged environment, loops included. *)
  let analyze_func ?(seed = []) ?visit (ctx : C.ctx) (f : Func.func) : state =
    let st = { tbl = Hashtbl.create 256; ctx } in
    List.iteri (fun i p -> set st p (C.param ctx i p)) f.Func.f_params;
    List.iter (fun (v, x) -> set st v x) seed;
    ignore (analyze_region st ~visit f.Func.f_body);
    st
end
