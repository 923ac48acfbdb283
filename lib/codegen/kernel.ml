(** Kernel generation: analyzed model → IR module (paper §3.3).

    Generates, per model and configuration:
    - [compute]: the per-timestep kernel. A (parallel) loop over cells that
      loads external and state values, interpolates lookup tables, evaluates
      the intermediate definitions and the per-state integrator updates, and
      stores everything back — the MLIR analogue of Listing 2/3;
    - [lut_init_<var>]: one table-filling function per [.lookup] markup,
      evaluating every tabulated cone on the grid.

    The vector configuration emits vector-typed ops throughout: contiguous
    [vector.load]/[vector.store] when the data layout allows (AoSoA,
    externals), [vector.gather]/[vector.scatter] otherwise (AoS state), and
    the vectorized LUT interpolation call of §3.4.2. *)

open Ir
module A = Easyml.Ast
module M = Easyml.Model
module LC = Easyml.Lut_cones

type lut_plan = LC.t

type t = {
  modl : Func.modl;
  cfg : Config.t;
  model : M.t;
  nvars : int;
  state_index : (string * int) list;  (** state name → slot in sv buffer *)
  ext_order : string list;  (** order of external memref parameters *)
  lut_plans : lut_plan list;  (** order of the (table, row) parameter pairs *)
  updates : (string * A.expr) list;  (** per-state update exprs (post-LUT) *)
  assigns : (string * A.expr) list;  (** output definitions (post-LUT) *)
}

let compute_name = "compute"
let lut_init_name (spec : M.lut_spec) = "lut_init_" ^ spec.M.lut_var

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let plan_luts (cfg : Config.t) (model : M.t)
    (updates : (string * A.expr) list) :
    lut_plan list * (string * A.expr) list * (string * A.expr) list =
  if not cfg.Config.use_lut then ([], updates, model.M.assigns)
  else
    let all_exprs =
      List.map snd model.M.assigns @ List.map snd updates
    in
    let plans = List.map (fun spec -> LC.plan spec all_exprs) model.M.luts in
    let rewrite_all e = List.fold_left (fun e p -> LC.rewrite p e) e plans in
    let updates = List.map (fun (x, e) -> (x, rewrite_all e)) updates in
    let assigns =
      List.map (fun (x, e) -> (x, rewrite_all e)) model.M.assigns
    in
    (plans, updates, assigns)

(* ------------------------------------------------------------------ *)
(* compute kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* Parameter list of [compute]:
     start, stop, ncells_pad : i64; dt, t : f64; sv : memref;
     one memref per external (in model order);
     (table, row) : memref pair per lookup table.
   Parameters are folded into literals by the front end, so no parameter
   is passed at run time. *)
let compute_param_tys (model : M.t) (nluts : int) : Ty.t list =
  [ Ty.I64; Ty.I64; Ty.I64; Ty.F64; Ty.F64; Ty.Memref ]
  @ List.map (fun _ -> Ty.Memref) model.M.externals
  @ List.concat_map (fun _ -> [ Ty.Memref; Ty.Memref ]) (List.init nluts Fun.id)

(* Address of state variable [k] for the scalar cell index [iv]. *)
let state_addr (b : Builder.t) (cfg : Config.t) ~(nvars : int)
    ~(ncells_pad : Value.t) ~(iv : Value.t) ~(k : int) : Value.t =
  match cfg.Config.layout with
  | Runtime.Layout.AoS ->
      Builder.addi b (Builder.muli b iv (Builder.consti b nvars)) (Builder.consti b k)
  | Runtime.Layout.SoA ->
      Builder.addi b (Builder.muli b (Builder.consti b k) ncells_pad) iv
  | Runtime.Layout.AoSoA w ->
      (* (iv / w) * (nvars*w) + k*w + iv mod w *)
      let wv = Builder.consti b w in
      let blk = Builder.muli b (Builder.divi b iv wv) (Builder.consti b (nvars * w)) in
      let off = Builder.addi b (Builder.consti b (k * w)) (Builder.remi b iv wv) in
      Builder.addi b blk off

(* Load/store state variable [k] at vector width.  The cell index [iv] is
   aligned to the width in the vector configuration (the driver aligns
   chunk boundaries). *)
let load_state (b : Builder.t) (cfg : Config.t) ~(nvars : int)
    ~(ncells_pad : Value.t) ~(sv : Value.t) ~(iv : Value.t) ~(k : int) :
    Value.t =
  let w = cfg.Config.width in
  if w = 1 then
    Builder.load b ~mem:sv ~idx:(state_addr b cfg ~nvars ~ncells_pad ~iv ~k)
  else if Runtime.Layout.contiguous cfg.layout ~w then
    Builder.vec_load b ~width:w ~mem:sv
      ~idx:(state_addr b cfg ~nvars ~ncells_pad ~iv ~k)
  else
    (* AoS gather: indices base + l*nvars *)
    let base = state_addr b cfg ~nvars ~ncells_pad ~iv ~k in
    let lanes = Builder.iota b ~width:w in
    let strided =
      Builder.muli b lanes
        (Builder.broadcast b ~width:w (Builder.consti b (Runtime.Layout.cell_stride cfg.layout ~nvars)))
    in
    let idxs = Builder.addi b (Builder.broadcast b ~width:w base) strided in
    Builder.gather b ~mem:sv ~idxs

let store_state (b : Builder.t) (cfg : Config.t) ~(nvars : int)
    ~(ncells_pad : Value.t) ~(sv : Value.t) ~(iv : Value.t) ~(k : int)
    (x : Value.t) : unit =
  let w = cfg.Config.width in
  if w = 1 then
    Builder.store b x ~mem:sv ~idx:(state_addr b cfg ~nvars ~ncells_pad ~iv ~k)
  else if Runtime.Layout.contiguous cfg.layout ~w then
    Builder.vec_store b ~vec:x ~mem:sv
      ~idx:(state_addr b cfg ~nvars ~ncells_pad ~iv ~k)
  else
    let base = state_addr b cfg ~nvars ~ncells_pad ~iv ~k in
    let lanes = Builder.iota b ~width:w in
    let strided =
      Builder.muli b lanes
        (Builder.broadcast b ~width:w (Builder.consti b (Runtime.Layout.cell_stride cfg.layout ~nvars)))
    in
    let idxs = Builder.addi b (Builder.broadcast b ~width:w base) strided in
    Builder.scatter b ~vec:x ~mem:sv ~idxs

let gen_compute (ctx : Builder.ctx) (modl : Func.modl) (cfg : Config.t)
    (model : M.t) ~(state_index : (string * int) list)
    ~(lut_plans : lut_plan list) ~(updates : (string * A.expr) list)
    ~(assigns : (string * A.expr) list) : Func.func =
  let w = cfg.Config.width in
  let nvars = List.length state_index in
  let param_tys = compute_param_tys model (List.length lut_plans) in
  Builder.func ctx ~name:compute_name ~params:param_tys ~results:[]
    (fun b args ->
      let start, stop, ncells_pad, dt, t, sv, rest =
        match args with
        | a :: b' :: c :: d :: e :: f :: r -> (a, b', c, d, e, f, r)
        | _ -> assert false
      in
      let next = ref rest in
      let take () =
        match !next with
        | x :: r ->
            next := r;
            x
        | [] -> assert false
      in
      let ext_mems =
        List.map (fun (e : M.ext_var) -> (e.M.ext_name, take ())) model.M.externals
      in
      let luts =
        List.map
          (fun plan ->
            let table = take () and row = take () in
            (plan, table, row))
          lut_plans
      in
      let step = Builder.consti b w in
      let _ =
        Builder.for_ b ~parallel:true ~lb:start ~ub:stop ~step
          ~inits:[] (fun ~iv ~iters:_ ->
            (* ---- loads -------------------------------------------- *)
            let load_ext mem =
              if w = 1 then Builder.load b ~mem ~idx:iv
              else Builder.vec_load b ~width:w ~mem ~idx:iv
            in
            let ext_vals =
              List.map (fun (name, mem) -> (name, load_ext mem)) ext_mems
            in
            let state_vals =
              List.map
                (fun (name, k) ->
                  (name, load_state b cfg ~nvars ~ncells_pad ~sv ~iv ~k))
                state_index
            in
            let dt_v = Builder.broadcast b ~width:w dt in
            let t_v = Builder.broadcast b ~width:w t in
            let base_bindings =
              [ ("dt", dt_v); ("t", t_v) ] @ ext_vals @ state_vals
            in
            (* ---- lookup tables ------------------------------------ *)
            let lut_bindings =
              List.concat_map
                (fun ((plan : lut_plan), table, row) ->
                  let spec = plan.LC.spec in
                  let x =
                    match List.assoc_opt spec.M.lut_var base_bindings with
                    | Some v -> v
                    | None ->
                        Lower.fail "lookup variable %s is not loaded"
                          spec.M.lut_var
                  in
                  let lo = Builder.constf b spec.M.lut_lo in
                  let stepf = Builder.constf b spec.M.lut_step in
                  let rows = Builder.consti b (M.lut_rows spec) in
                  let cols = Builder.consti b (LC.n_columns plan) in
                  let callee =
                    match (w, cfg.Config.lut_spline) with
                    | 1, false -> "lut_interp"
                    | 1, true -> "lut_interp_cubic"
                    | _, false -> "lut_interp_vec"
                    | _, true -> "lut_interp_cubic_vec"
                  in
                  let _ =
                    Builder.call b modl callee
                      [ table; row; x; lo; stepf; rows; cols ]
                  in
                  List.map
                    (fun (col : LC.column) ->
                      let name = LC.column_var spec col.LC.col_index in
                      let v =
                        if w = 1 then
                          Builder.load b ~mem:row
                            ~idx:(Builder.consti b col.LC.col_index)
                        else
                          Builder.vec_load b ~width:w ~mem:row
                            ~idx:(Builder.consti b (col.LC.col_index * w))
                      in
                      (name, v))
                    plan.LC.columns)
                luts
            in
            let env =
              Lower.make_env ~b ~width:w (base_bindings @ lut_bindings)
            in
            (* ---- intermediate/output definitions ------------------ *)
            let env =
              List.fold_left
                (fun env (name, e) ->
                  let v = Lower.lower_num env e in
                  Lower.bind env [ (name, v) ])
                env assigns
            in
            (* ---- integrator updates (no stores yet: Listing 2 keeps
               all new values in temporaries until the end) ----------- *)
            let new_states =
              List.map
                (fun (name, e) -> (name, Lower.lower_num env e))
                updates
            in
            (* ---- stores ------------------------------------------- *)
            List.iter
              (fun (name, k) ->
                match List.assoc_opt name new_states with
                | Some v -> store_state b cfg ~nvars ~ncells_pad ~sv ~iv ~k v
                | None -> ())
              state_index;
            List.iter
              (fun (name, mem) ->
                let is_out =
                  match M.find_ext model name with
                  | Some e -> e.M.ext_assigned
                  | None -> false
                in
                if is_out then
                  match env.Lower.lookup name with
                  | Some v ->
                      if w = 1 then Builder.store b v ~mem ~idx:iv
                      else Builder.vec_store b ~vec:v ~mem ~idx:iv
                  | None -> ())
              ext_mems;
            [])
      in
      Builder.ret b [])

(* ------------------------------------------------------------------ *)
(* lookup-table initializers                                           *)
(* ------------------------------------------------------------------ *)

let gen_lut_init (ctx : Builder.ctx) (plan : lut_plan) : Func.func =
  let spec = plan.LC.spec in
  let rows = M.lut_rows spec in
  let cols = LC.n_columns plan in
  Builder.func ctx
    ~name:(lut_init_name spec)
    ~params:[ Ty.Memref; Ty.F64 ] ~results:[]
    (fun b args ->
      let table, dt =
        match args with [ a; b' ] -> (a, b') | _ -> assert false
      in
      let lb = Builder.consti b 0 in
      let ub = Builder.consti b rows in
      let step = Builder.consti b 1 in
      let _ =
        Builder.for_ b ~lb ~ub ~step ~inits:[] (fun ~iv ~iters:_ ->
            let r_f = Builder.sitofp b iv in
            let x =
              Builder.addf b
                (Builder.constf b spec.M.lut_lo)
                (Builder.mulf b r_f (Builder.constf b spec.M.lut_step))
            in
            let env =
              Lower.make_env ~b ~width:1
                [ (spec.M.lut_var, x); ("dt", dt) ]
            in
            let rowbase = Builder.muli b iv (Builder.consti b cols) in
            List.iter
              (fun (col : LC.column) ->
                let v = Lower.lower_num env col.LC.col_expr in
                let idx = Builder.addi b rowbase (Builder.consti b col.LC.col_index) in
                Builder.store b v ~mem:table ~idx)
              plan.LC.columns;
            [])
      in
      Builder.ret b [])

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let generate ?(optimize = true)
    ?(validate : (string -> Func.modl -> Func.modl -> unit) option)
    (cfg : Config.t) (model : M.t) : t =
  let ctx = Builder.create_ctx () in
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
        | _ -> '_')
      (Config.describe cfg)
  in
  let modl = Func.create_module (model.M.name ^ "_" ^ sanitized) in
  List.iter (Func.declare_extern modl)
    (Runtime.Lut.extern_sigs ~width:(max cfg.Config.width 2));
  let state_index =
    List.mapi (fun k (sv : M.state_var) -> (sv.M.sv_name, k)) model.M.states
  in
  let updates =
    List.map
      (fun (sv : M.state_var) -> (sv.M.sv_name, Integrators.update_expr sv))
      model.M.states
  in
  let lut_plans, updates, assigns = plan_luts cfg model updates in
  List.iter (fun p -> Func.add_func modl (gen_lut_init ctx p)) lut_plans;
  Func.add_func modl
    (gen_compute ctx modl cfg model ~state_index ~lut_plans ~updates ~assigns);
  if optimize then Passes.Pipeline.optimize ?validate modl;
  {
    modl;
    cfg;
    model;
    nvars = List.length state_index;
    state_index;
    ext_order = List.map (fun (e : M.ext_var) -> e.M.ext_name) model.M.externals;
    lut_plans;
    updates;
    assigns;
  }
