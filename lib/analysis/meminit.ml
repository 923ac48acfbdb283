(** Definite-initialization (use-before-def) analysis for local buffers.

    A {e must}-analysis over [memref.alloc]'d buffers: a read is clean
    only when every element it may touch has definitely been written on
    every path reaching it.  Parameter memrefs are the caller's problem
    (the driver hands kernels fully-initialized buffers; the race
    checker and the engines' runtime bounds checks cover those), so only
    allocs are tracked.

    The must-state per alloc is a set of disjoint, coalesced index
    ranges.  Stores extend it when their coverage is {e exact}:

    - constant index (scalar or vector store) — covers [off .. off+w-1];
    - a store at [iv + c] inside a [for] with constant bounds and
      [step <= width] — after the loop, covers the whole contiguous
      sweep (strided sweeps with gaps are not must-covered);
    - same-iteration reuse: a load at the syntactically identical
      [iv + c] as an earlier store in the same loop body is clean even
      though the sweep is not complete yet.

    [scf.if] intersects the branch states; loop bodies are checked with
    the entry state (conservative: loop-carried initialization from a
    previous iteration is not assumed). *)

open Ir
module I = Itv.I

type issue = { mi_op : Op.op; mi_alloc : int; mi_msg : string }

(* -- coalesced range sets ------------------------------------------- *)

type ranges = (int * int) list (* sorted, disjoint, non-adjacent *)

let add_range (lo, hi) (rs : ranges) : ranges =
  let rec go lo hi = function
    | [] -> [ (lo, hi) ]
    | (l, h) :: rest when h + 1 < lo -> (l, h) :: go lo hi rest
    | (l, h) :: rest when hi + 1 < l -> (lo, hi) :: (l, h) :: rest
    | (l, h) :: rest -> go (min lo l) (max hi h) rest
  in
  go lo hi rs

let covers (lo, hi) (rs : ranges) : bool =
  List.exists (fun (l, h) -> l <= lo && hi <= h) rs

let inter_ranges (a : ranges) (b : ranges) : ranges =
  List.concat_map
    (fun (l1, h1) ->
      List.filter_map
        (fun (l2, h2) ->
          let l = max l1 l2 and h = min h1 h2 in
          if l <= h then Some (l, h) else None)
        b)
    a

(* -- per-alloc environment ------------------------------------------ *)

module IMap = Map.Make (Int)

type env = ranges IMap.t (* alloc op id -> must-initialized ranges *)

let inter_env (a : env) (b : env) : env =
  IMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some rx, Some ry -> Some (inter_ranges rx ry)
      | _ -> (* alloc missing on one side: scoped out, drop *) None)
    a b

(* ------------------------------------------------------------------ *)

type ctx = {
  st : Interval.state;
  defs : Value.t -> Op.op option;
  mutable issues : issue list;
}

let alloc_of (ctx : ctx) (mem : Value.t) : int option =
  match Interval.mem_origin ctx.st mem with
  | Interval.Oalloc id -> Some id
  | _ -> None

(* Exact coverage of a single store execution: Some (lo, hi) iff the
   index chases to a constant. *)
let const_span (ctx : ctx) (idx : Value.t) (w : int) : (int * int) option =
  match Footprint.chase_idx ctx.defs idx 0 8 with
  | None, off -> Some (off, off + w - 1)
  | Some _, _ -> None

(* (root id, offset, width) for same-iteration symbolic matching *)
let sym_key (ctx : ctx) (idx : Value.t) (w : int) : (int * int * int) option =
  match Footprint.chase_idx ctx.defs idx 0 8 with
  | Some r, off -> Some (r.Value.id, off, w)
  | None, _ -> None

let access_width (o : Op.op) : int =
  match o.Op.kind with
  | Op.VecLoad -> Ty.width o.Op.results.(0).Value.ty
  | Op.VecStore -> Ty.width o.Op.operands.(0).Value.ty
  | _ -> 1

(* store / load shapes: (mem operand, idx operand) positions *)
let store_shape (o : Op.op) : (Value.t * Value.t) option =
  match o.Op.kind with
  | Op.MemStore | Op.VecStore -> Some (o.Op.operands.(1), o.Op.operands.(2))
  | _ -> None

let load_shape (o : Op.op) : (Value.t * Value.t) option =
  match o.Op.kind with
  | Op.MemLoad | Op.VecLoad -> Some (o.Op.operands.(0), o.Op.operands.(1))
  | _ -> None

let report (ctx : ctx) (o : Op.op) (alloc : int) (itv : I.t) : unit =
  ctx.issues <-
    {
      mi_op = o;
      mi_alloc = alloc;
      mi_msg =
        Fmt.str "read of alloc#%d indices %a may precede initialization" alloc
          I.pp itv;
    }
    :: ctx.issues

(* Walk a region.  [syms] is the set of symbolic (root, off, width)
   spans stored earlier in the same iteration of the enclosing loop
   body. *)
let rec walk (ctx : ctx) (env : env) (syms : (int * int * int) list)
    (ops : Op.op list) : env =
  match ops with
  | [] -> env
  | o :: rest ->
      let env, syms =
        match o.Op.kind with
        | Op.Alloc -> (IMap.add o.Op.o_id [] env, syms)
        | Op.MemStore | Op.VecStore -> (
            let mem, idx = Option.get (store_shape o) in
            match alloc_of ctx mem with
            | None -> (env, syms)
            | Some id ->
                let w = access_width o in
                let env =
                  match const_span ctx idx w with
                  | Some span ->
                      IMap.update id
                        (Option.map (add_range span))
                        env
                  | None -> env
                in
                let syms =
                  match sym_key ctx idx w with
                  | Some k -> k :: syms
                  | None -> syms
                in
                (env, syms))
        | Op.MemLoad | Op.VecLoad -> (
            let mem, idx = Option.get (load_shape o) in
            match alloc_of ctx mem with
            | None -> (env, syms)
            | Some id ->
                let w = access_width o in
                let itv =
                  Footprint.widen_by (Interval.int_itv ctx.st idx) w
                in
                let init =
                  Option.value ~default:[] (IMap.find_opt id env)
                in
                let clean =
                  I.is_bot itv
                  || ((not (I.equal itv I.top))
                     && itv.I.lo <> min_int && itv.I.hi <> max_int
                     && covers (itv.I.lo, itv.I.hi) init)
                  ||
                  match sym_key ctx idx w with
                  | Some (r, off, _) ->
                      List.exists
                        (fun (r', off', w') ->
                          r' = r && off' <= off && off + w - 1 <= off' + w' - 1)
                        syms
                  | None -> false
                in
                if not clean then report ctx o id itv;
                (env, syms))
        | Op.Gather | Op.Scatter | Op.Call _ ->
            (* conservative: gathers/scatters/calls on allocs neither
               prove nor break initialization here; footprint-level
               checks cover them *)
            (env, syms)
        | Op.If ->
            let e_then = walk ctx env syms (o.Op.regions.(0).Op.r_ops) in
            let e_else = walk ctx env syms (o.Op.regions.(1).Op.r_ops) in
            (inter_env e_then e_else, syms)
        | Op.For _ -> (walk_for ctx env o, syms)
        | _ -> (env, syms)
      in
      walk ctx env syms rest

and walk_for (ctx : ctx) (env : env) (o : Op.op) : env =
  let body = o.Op.regions.(0) in
  let iv = List.hd body.Op.r_args in
  (* check body uses against the entry state; same-iteration symbolic
     stores start fresh *)
  let _ : env = walk ctx env [] body.Op.r_ops in
  (* post-loop must-coverage from stores at [iv + c] when the sweep is
     contiguous and the trip count is known *)
  let lb = Interval.int_itv ctx.st o.Op.operands.(0)
  and ub = Interval.int_itv ctx.st o.Op.operands.(1)
  and step = Interval.int_itv ctx.st o.Op.operands.(2) in
  if I.is_const lb && I.is_const ub && I.is_const step && step.I.lo > 0
     && ub.I.lo > lb.I.lo
  then begin
    let lb = lb.I.lo and ub = ub.I.lo and step = step.I.lo in
    let last = lb + ((ub - 1 - lb) / step * step) in
    let env = ref env in
    Op.iter_region
      (fun o' ->
        match store_shape o' with
        | Some (mem, idx) -> (
            match alloc_of ctx mem with
            | None -> ()
            | Some id ->
                let w = access_width o' in
                (* every iterate's span [iv+c .. iv+c+w-1] chains into a
                   contiguous sweep only when steps don't leave gaps *)
                if step <= w then begin
                  match Footprint.chase_idx ctx.defs idx 0 8 with
                  | Some r, off when r.Value.id = iv.Value.id ->
                      env :=
                        IMap.update id
                          (Option.map
                             (add_range (lb + off, last + off + w - 1)))
                          !env
                  | _ -> ()
                end)
        | None -> ())
      body;
    !env
  end
  else env

(** Check a function; returns possibly-uninitialized reads of local
    allocs, in program order. *)
let check_func (f : Func.func) : issue list =
  let st = Interval.analyze_func f in
  let defs_tbl : (int, Op.op) Hashtbl.t = Hashtbl.create 64 in
  Op.iter_region
    (fun o ->
      Array.iter (fun (r : Value.t) -> Hashtbl.replace defs_tbl r.Value.id o) o.Op.results)
    f.Func.f_body;
  let ctx =
    {
      st;
      defs = (fun v -> Hashtbl.find_opt defs_tbl v.Value.id);
      issues = [];
    }
  in
  let _ : env = walk ctx IMap.empty [] f.Func.f_body.Op.r_ops in
  List.rev ctx.issues
