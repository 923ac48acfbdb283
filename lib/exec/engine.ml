open Ir
(** Closure-compiling execution engine.

    The IR of a function is compiled once into a tree of OCaml closures
    ("thunks") operating over preallocated typed register files — the OCaml
    stand-in for LLVM's native code generation.  Every SSA value gets a
    fixed slot; vector values get a preallocated [floatarray] of their
    width, so steady-state execution performs no allocation in straight-line
    code.  A vector op executes its whole width inside one closure
    invocation, which is what gives vectorized kernels their genuine
    wall-clock advantage over scalar ones in this port (one dispatch per
    [w] lanes, contiguous memory traffic), mirroring the paper's SIMD
    argument at the interpreter level.

    The compilation context, the per-op thunk compiler and the module
    linker are exposed so that {!Batched} can reuse them: the tile-batched
    engine shares this module's register files and runs every op it does
    not tile through {!compile_op}. *)

exception Exec_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type slot =
  | SF of int
  | SI of int
  | SB of int
  | SVF of int * int  (** slot, width *)
  | SVI of int * int
  | SVB of int * int
  | SM of int

(* Vector width lists are kept reversed and finalized once in [make_env];
   allocation is O(1) per value (a previous version appended with
   [!r @ [w]], which was O(n²) over the SSA values of a function). *)
type slots = {
  map : (int, slot) Hashtbl.t;
  mutable nf : int;
  mutable ni : int;
  mutable nb : int;
  mutable nvf : int;
  mutable nvi : int;
  mutable nvb : int;
  mutable vf_widths_rev : int list;
  mutable vi_widths_rev : int list;
  mutable vb_widths_rev : int list;
  mutable nm : int;
}

let alloc_slot (s : slots) (v : Value.t) : unit =
  if not (Hashtbl.mem s.map v.id) then begin
    let slot =
      match v.ty with
      | Ty.F64 ->
          let k = s.nf in
          s.nf <- k + 1;
          SF k
      | Ty.I64 ->
          let k = s.ni in
          s.ni <- k + 1;
          SI k
      | Ty.I1 ->
          let k = s.nb in
          s.nb <- k + 1;
          SB k
      | Ty.Vec (w, Ty.F64) ->
          let k = s.nvf in
          s.nvf <- k + 1;
          s.vf_widths_rev <- w :: s.vf_widths_rev;
          SVF (k, w)
      | Ty.Vec (w, Ty.I64) ->
          let k = s.nvi in
          s.nvi <- k + 1;
          s.vi_widths_rev <- w :: s.vi_widths_rev;
          SVI (k, w)
      | Ty.Vec (w, Ty.I1) ->
          let k = s.nvb in
          s.nvb <- k + 1;
          s.vb_widths_rev <- w :: s.vb_widths_rev;
          SVB (k, w)
      | Ty.Vec (_, _) -> fail "unsupported vector element type"
      | Ty.Memref ->
          let k = s.nm in
          s.nm <- k + 1;
          SM k
    in
    Hashtbl.replace s.map v.id slot
  end

let collect_slots (f : Func.func) : slots =
  let s =
    {
      map = Hashtbl.create 64;
      nf = 0;
      ni = 0;
      nb = 0;
      nvf = 0;
      nvi = 0;
      nvb = 0;
      vf_widths_rev = [];
      vi_widths_rev = [];
      vb_widths_rev = [];
      nm = 0;
    }
  in
  List.iter (alloc_slot s) f.Func.f_params;
  let rec walk (r : Op.region) =
    List.iter (alloc_slot s) r.Op.r_args;
    List.iter
      (fun (o : Op.op) ->
        Array.iter (alloc_slot s) o.results;
        Array.iter walk o.regions)
      r.Op.r_ops
  in
  walk f.Func.f_body;
  s

type env = {
  f : float array;
  i : int array;
  b : bool array;
  vf : floatarray array;
  vi : int array array;
  vb : bool array array;
  m : floatarray array;
}

let make_env (s : slots) : env =
  {
    f = Array.make (max 1 s.nf) 0.0;
    i = Array.make (max 1 s.ni) 0;
    b = Array.make (max 1 s.nb) false;
    vf = Array.of_list (List.rev_map Float.Array.create s.vf_widths_rev);
    vi = Array.of_list (List.rev_map (fun w -> Array.make w 0) s.vi_widths_rev);
    vb =
      Array.of_list (List.rev_map (fun w -> Array.make w false) s.vb_widths_rev);
    m = Array.make (max 1 s.nm) (Float.Array.create 0);
  }

(* Fast paths for the common unary/binary math builtins; everything else
   goes through the generic Builtins eval with a per-element array. *)
let unary_fn : string -> (float -> float) option = function
  | "square" -> Some (fun x -> x *. x)
  | "cube" -> Some (fun x -> x *. x *. x)
  | "exp" -> Some Float.exp
  | "expm1" -> Some Float.expm1
  | "log" -> Some Float.log
  | "log1p" -> Some Float.log1p
  | "log10" -> Some Float.log10
  | "log2" -> Some Float.log2
  | "sqrt" -> Some Float.sqrt
  | "cbrt" -> Some Float.cbrt
  | "fabs" | "abs" -> Some Float.abs
  | "floor" -> Some Float.floor
  | "ceil" -> Some Float.ceil
  | "round" -> Some Float.round
  | "trunc" -> Some Float.trunc
  | "sin" -> Some Float.sin
  | "cos" -> Some Float.cos
  | "tan" -> Some Float.tan
  | "tanh" -> Some Float.tanh
  | "sinh" -> Some Float.sinh
  | "cosh" -> Some Float.cosh
  | "asin" -> Some Float.asin
  | "acos" -> Some Float.acos
  | "atan" -> Some Float.atan
  | _ -> None

let binary_fn : string -> (float -> float -> float) option = function
  | "pow" -> Some Float.pow
  | "atan2" -> Some Float.atan2
  | "fmod" -> Some Float.rem
  | "min" | "fmin" -> Some Float.min
  | "max" | "fmax" -> Some Float.max
  | "hypot" -> Some Float.hypot
  | _ -> None

let fbin_fn : Op.fbin -> float -> float -> float = function
  | Op.FAdd -> ( +. )
  | Op.FSub -> ( -. )
  | Op.FMul -> ( *. )
  | Op.FDiv -> ( /. )
  | Op.FMin -> Float.min
  | Op.FMax -> Float.max
  | Op.FRem -> Float.rem

let ibin_fn : Op.ibin -> int -> int -> int = function
  | Op.IAdd -> ( + )
  | Op.ISub -> ( - )
  | Op.IMul -> ( * )
  | Op.IDiv -> ( / )
  | Op.IRem -> ( mod )

let bbin_fn : Op.bbin -> bool -> bool -> bool = function
  | Op.BAnd -> ( && )
  | Op.BOr -> ( || )
  | Op.BXor -> ( <> )

let cmpf_fn : Op.cmp -> float -> float -> bool = function
  | Op.Lt -> ( < )
  | Op.Le -> ( <= )
  | Op.Gt -> ( > )
  | Op.Ge -> ( >= )
  | Op.Eq -> ( = )
  | Op.Ne -> ( <> )

let cmpi_fn : Op.cmp -> int -> int -> bool = function
  | Op.Lt -> ( < )
  | Op.Le -> ( <= )
  | Op.Gt -> ( > )
  | Op.Ge -> ( >= )
  | Op.Eq -> ( = )
  | Op.Ne -> ( <> )

type compiled = Rt.v array -> Rt.v array

(** Per-function compilation context: the slot map, the register file, the
    module-level callee lookup and the return-value box.  One context per
    compiled function instance; compiled code is NOT reentrant because the
    register file is owned by the context. *)
type fctx = {
  slots : slots;
  env : env;
  get : string -> compiled;
  return_box : Rt.v array ref;
}

let make_fctx (fn : Func.func) ~(get : string -> compiled) : fctx =
  let slots = collect_slots fn in
  { slots; env = make_env slots; get; return_box = ref [||] }

let slot (c : fctx) (v : Value.t) : slot = Hashtbl.find c.slots.map v.id

let fslot c v = match slot c v with SF k -> k | _ -> fail "expected f64 slot"
let islot c v = match slot c v with SI k -> k | _ -> fail "expected i64 slot"
let bslot c v = match slot c v with SB k -> k | _ -> fail "expected i1 slot"

let vfslot c v =
  match slot c v with SVF (k, w) -> (k, w) | _ -> fail "expected vf slot"

let vislot c v =
  match slot c v with SVI (k, w) -> (k, w) | _ -> fail "expected vi slot"

let vbslot c v =
  match slot c v with SVB (k, w) -> (k, w) | _ -> fail "expected vb slot"

let mslot c v =
  match slot c v with SM k -> k | _ -> fail "expected memref slot"

(* write an Rt.v into a slot / read a slot as Rt.v *)
let set_slot (c : fctx) (v : Value.t) (x : Rt.v) : unit =
  let { f; i; b; vf; vi; vb; m } = c.env in
  match (slot c v, x) with
  | SF k, Rt.F x -> f.(k) <- x
  | SI k, Rt.I x -> i.(k) <- x
  | SB k, Rt.B x -> b.(k) <- x
  | SVF (k, w), Rt.VF a ->
      if Float.Array.length a <> w then fail "vector width mismatch";
      Float.Array.blit a 0 vf.(k) 0 w
  | SVI (k, w), Rt.VI a ->
      if Array.length a <> w then fail "vector width mismatch";
      Array.blit a 0 vi.(k) 0 w
  | SVB (k, w), Rt.VB a ->
      if Array.length a <> w then fail "vector width mismatch";
      Array.blit a 0 vb.(k) 0 w
  | SM k, Rt.M a -> m.(k) <- a
  | _, x ->
      fail "argument of type %s does not match slot for %%%d" (Rt.type_name x)
        v.id

let get_slot (c : fctx) (v : Value.t) : Rt.v =
  let { f; i; b; vf; vi; vb; m } = c.env in
  match slot c v with
  | SF k -> Rt.F f.(k)
  | SI k -> Rt.I i.(k)
  | SB k -> Rt.B b.(k)
  | SVF (k, w) ->
      let a = Float.Array.create w in
      Float.Array.blit vf.(k) 0 a 0 w;
      Rt.VF a
  | SVI (k, w) -> Rt.VI (Array.sub vi.(k) 0 w)
  | SVB (k, w) -> Rt.VB (Array.sub vb.(k) 0 w)
  | SM k -> Rt.M m.(k)

(** Parallel copy src values -> dst values (same types), through temps, so
    yields that permute loop-carried values don't clobber each other. *)
let parallel_copy (c : fctx) (srcs : Value.t array) (dsts : Value.t list) :
    unit -> unit =
  let { f; i; b; vf; vi; vb; m } = c.env in
  let dsts = Array.of_list dsts in
  let moves =
    Array.map2
      (fun (s : Value.t) (d : Value.t) ->
        match (slot c s, slot c d) with
        | SF a, SF b_ -> `F (a, b_)
        | SI a, SI b_ -> `I (a, b_)
        | SB a, SB b_ -> `B (a, b_)
        | SVF (a, w), SVF (b_, _) -> `VF (a, b_, w)
        | SVI (a, w), SVI (b_, _) -> `VI (a, b_, w)
        | SVB (a, w), SVB (b_, _) -> `VB (a, b_, w)
        | SM a, SM b_ -> `M (a, b_)
        | _ -> fail "yield type mismatch in parallel copy")
      srcs dsts
  in
  (* temps for the scalar categories + vector categories *)
  let n = Array.length moves in
  let tf = Array.make n 0.0
  and ti = Array.make n 0
  and tb = Array.make n false
  and tm = Array.make n (Float.Array.create 0) in
  let tvf =
    Array.map
      (function
        | `VF (_, _, w) -> Float.Array.create w | _ -> Float.Array.create 0)
      moves
  and tvi =
    Array.map (function `VI (_, _, w) -> Array.make w 0 | _ -> [||]) moves
  and tvb =
    Array.map (function `VB (_, _, w) -> Array.make w false | _ -> [||]) moves
  in
  fun () ->
    Array.iteri
      (fun k mv ->
        match mv with
        | `F (a, _) -> tf.(k) <- f.(a)
        | `I (a, _) -> ti.(k) <- i.(a)
        | `B (a, _) -> tb.(k) <- b.(a)
        | `VF (a, _, w) -> Float.Array.blit vf.(a) 0 tvf.(k) 0 w
        | `VI (a, _, w) -> Array.blit vi.(a) 0 tvi.(k) 0 w
        | `VB (a, _, w) -> Array.blit vb.(a) 0 tvb.(k) 0 w
        | `M (a, _) -> tm.(k) <- m.(a))
      moves;
    Array.iteri
      (fun k mv ->
        match mv with
        | `F (_, d) -> f.(d) <- tf.(k)
        | `I (_, d) -> i.(d) <- ti.(k)
        | `B (_, d) -> b.(d) <- tb.(k)
        | `VF (_, d, w) -> Float.Array.blit tvf.(k) 0 vf.(d) 0 w
        | `VI (_, d, w) -> Array.blit tvi.(k) 0 vi.(d) 0 w
        | `VB (_, d, w) -> Array.blit tvb.(k) 0 vb.(d) 0 w
        | `M (_, d) -> m.(d) <- tm.(k))
      moves

(** A region compiler: given a yield handler, compile a region body to a
    thunk.  {!compile_op} is parameterized over it so that structured ops
    ([scf.for], [scf.if]) compile their nested regions with whichever
    engine (closure or batched) is driving the compilation. *)
type region_compiler =
  on_yield:(Op.op -> unit -> unit) -> Op.region -> unit -> unit

(** Compile one op to a thunk over the context's register file.  Handles
    every op kind; the batched engine uses this for every op it does not
    tile. *)
let compile_op (c : fctx) ~(compile_region : region_compiler) (o : Op.op) :
    unit -> unit =
  let { f; i; b; vf; vi; vb; m } = c.env in
  let fslot = fslot c
  and islot = islot c
  and bslot = bslot c
  and vfslot = vfslot c
  and vislot = vislot c
  and vbslot = vbslot c
  and mslot = mslot c in
  let op1 () = o.Op.operands.(0)
  and op2 () = o.Op.operands.(1)
  and op3 () = o.Op.operands.(2)
  and res () = o.Op.results.(0) in
  match o.Op.kind with
  | Op.ConstF cst ->
      let d = fslot (res ()) in
      fun () -> f.(d) <- cst
  | Op.ConstI cst ->
      let d = islot (res ()) in
      fun () -> i.(d) <- cst
  | Op.ConstB cst ->
      let d = bslot (res ()) in
      fun () -> b.(d) <- cst
  | Op.BinF k -> (
      let g = fbin_fn k in
      match (res ()).ty with
      | Ty.F64 ->
          let a = fslot (op1 ()) and c_ = fslot (op2 ()) and d = fslot (res ()) in
          (* dedicated closures for the four common arithmetic ops
             avoid a closure call per operation *)
          (match k with
          | Op.FAdd -> fun () -> f.(d) <- f.(a) +. f.(c_)
          | Op.FSub -> fun () -> f.(d) <- f.(a) -. f.(c_)
          | Op.FMul -> fun () -> f.(d) <- f.(a) *. f.(c_)
          | Op.FDiv -> fun () -> f.(d) <- f.(a) /. f.(c_)
          | _ -> fun () -> f.(d) <- g f.(a) f.(c_))
      | _ ->
          let a, w = vfslot (op1 ())
          and c_, _ = vfslot (op2 ())
          and d, _ = vfslot (res ()) in
          (match k with
          | Op.FAdd ->
              fun () ->
                let x = vf.(a) and y = vf.(c_) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (Float.Array.get x l +. Float.Array.get y l)
                done
          | Op.FSub ->
              fun () ->
                let x = vf.(a) and y = vf.(c_) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (Float.Array.get x l -. Float.Array.get y l)
                done
          | Op.FMul ->
              fun () ->
                let x = vf.(a) and y = vf.(c_) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (Float.Array.get x l *. Float.Array.get y l)
                done
          | Op.FDiv ->
              fun () ->
                let x = vf.(a) and y = vf.(c_) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (Float.Array.get x l /. Float.Array.get y l)
                done
          | _ ->
              fun () ->
                let x = vf.(a) and y = vf.(c_) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (g (Float.Array.get x l) (Float.Array.get y l))
                done))
  | Op.NegF -> (
      match (res ()).ty with
      | Ty.F64 ->
          let a = fslot (op1 ()) and d = fslot (res ()) in
          fun () -> f.(d) <- -.f.(a)
      | _ ->
          let a, w = vfslot (op1 ()) and d, _ = vfslot (res ()) in
          fun () ->
            let x = vf.(a) and z = vf.(d) in
            for l = 0 to w - 1 do
              Float.Array.set z l (-.Float.Array.get x l)
            done)
  | Op.BinI k -> (
      let g = ibin_fn k in
      match (res ()).ty with
      | Ty.I64 ->
          let a = islot (op1 ()) and c_ = islot (op2 ()) and d = islot (res ()) in
          fun () -> i.(d) <- g i.(a) i.(c_)
      | _ ->
          let a, w = vislot (op1 ())
          and c_, _ = vislot (op2 ())
          and d, _ = vislot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vi.(d).(l) <- g vi.(a).(l) vi.(c_).(l)
            done)
  | Op.BinB k -> (
      let g = bbin_fn k in
      match (res ()).ty with
      | Ty.I1 ->
          let a = bslot (op1 ()) and c_ = bslot (op2 ()) and d = bslot (res ()) in
          fun () -> b.(d) <- g b.(a) b.(c_)
      | _ ->
          let a, w = vbslot (op1 ())
          and c_, _ = vbslot (op2 ())
          and d, _ = vbslot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vb.(d).(l) <- g vb.(a).(l) vb.(c_).(l)
            done)
  | Op.NotB -> (
      match (res ()).ty with
      | Ty.I1 ->
          let a = bslot (op1 ()) and d = bslot (res ()) in
          fun () -> b.(d) <- not b.(a)
      | _ ->
          let a, w = vbslot (op1 ()) and d, _ = vbslot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vb.(d).(l) <- not vb.(a).(l)
            done)
  | Op.CmpF cc -> (
      let g = cmpf_fn cc in
      match (op1 ()).ty with
      | Ty.F64 ->
          let a = fslot (op1 ()) and x = fslot (op2 ()) and d = bslot (res ()) in
          fun () -> b.(d) <- g f.(a) f.(x)
      | _ ->
          let a, w = vfslot (op1 ())
          and x, _ = vfslot (op2 ())
          and d, _ = vbslot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vb.(d).(l) <- g (Float.Array.get vf.(a) l) (Float.Array.get vf.(x) l)
            done)
  | Op.CmpI cc -> (
      let g = cmpi_fn cc in
      match (op1 ()).ty with
      | Ty.I64 ->
          let a = islot (op1 ()) and x = islot (op2 ()) and d = bslot (res ()) in
          fun () -> b.(d) <- g i.(a) i.(x)
      | _ ->
          let a, w = vislot (op1 ())
          and x, _ = vislot (op2 ())
          and d, _ = vbslot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vb.(d).(l) <- g vi.(a).(l) vi.(x).(l)
            done)
  | Op.Select -> (
      match (res ()).ty with
      | Ty.F64 ->
          let c_ = bslot (op1 ()) and x = fslot (op2 ()) and y = fslot (op3 ())
          and d = fslot (res ()) in
          fun () -> f.(d) <- (if b.(c_) then f.(x) else f.(y))
      | Ty.I64 ->
          let c_ = bslot (op1 ()) and x = islot (op2 ()) and y = islot (op3 ())
          and d = islot (res ()) in
          fun () -> i.(d) <- (if b.(c_) then i.(x) else i.(y))
      | Ty.I1 ->
          let c_ = bslot (op1 ()) and x = bslot (op2 ()) and y = bslot (op3 ())
          and d = bslot (res ()) in
          fun () -> b.(d) <- (if b.(c_) then b.(x) else b.(y))
      | Ty.Vec (_, Ty.F64) ->
          let c_, w = vbslot (op1 ()) and x, _ = vfslot (op2 ())
          and y, _ = vfslot (op3 ()) and d, _ = vfslot (res ()) in
          fun () ->
            let z = vf.(d) in
            for l = 0 to w - 1 do
              Float.Array.set z l
                (if vb.(c_).(l) then Float.Array.get vf.(x) l
                 else Float.Array.get vf.(y) l)
            done
      | Ty.Vec (_, Ty.I64) ->
          let c_, w = vbslot (op1 ()) and x, _ = vislot (op2 ())
          and y, _ = vislot (op3 ()) and d, _ = vislot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vi.(d).(l) <- (if vb.(c_).(l) then vi.(x).(l) else vi.(y).(l))
            done
      | _ -> fail "select: unsupported type")
  | Op.SIToFP -> (
      match (res ()).ty with
      | Ty.F64 ->
          let a = islot (op1 ()) and d = fslot (res ()) in
          fun () -> f.(d) <- float_of_int i.(a)
      | _ ->
          let a, w = vislot (op1 ()) and d, _ = vfslot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              Float.Array.set vf.(d) l (float_of_int vi.(a).(l))
            done)
  | Op.FPToSI -> (
      match (res ()).ty with
      | Ty.I64 ->
          let a = fslot (op1 ()) and d = islot (res ()) in
          fun () -> i.(d) <- int_of_float f.(a)
      | _ ->
          let a, w = vfslot (op1 ()) and d, _ = vislot (res ()) in
          fun () ->
            for l = 0 to w - 1 do
              vi.(d).(l) <- int_of_float (Float.Array.get vf.(a) l)
            done)
  | Op.Math name -> (
      let bi =
        match Easyml.Builtins.find name with
        | Some bi -> bi
        | None -> fail "unknown math builtin %s" name
      in
      match ((res ()).ty, bi.arity) with
      | Ty.F64, 1 -> (
          let a = fslot (op1 ()) and d = fslot (res ()) in
          match unary_fn name with
          | Some g -> fun () -> f.(d) <- g f.(a)
          | None ->
              let buf = [| 0.0 |] in
              fun () ->
                buf.(0) <- f.(a);
                f.(d) <- bi.eval buf)
      | Ty.F64, 2 -> (
          let a = fslot (op1 ()) and c_ = fslot (op2 ()) and d = fslot (res ()) in
          match binary_fn name with
          | Some g -> fun () -> f.(d) <- g f.(a) f.(c_)
          | None ->
              let buf = [| 0.0; 0.0 |] in
              fun () ->
                buf.(0) <- f.(a);
                buf.(1) <- f.(c_);
                f.(d) <- bi.eval buf)
      | Ty.Vec _, 1 -> (
          let a, w = vfslot (op1 ()) and d, _ = vfslot (res ()) in
          match unary_fn name with
          | Some g ->
              fun () ->
                let x = vf.(a) and z = vf.(d) in
                for l = 0 to w - 1 do
                  Float.Array.set z l (g (Float.Array.get x l))
                done
          | None ->
              let buf = [| 0.0 |] in
              fun () ->
                for l = 0 to w - 1 do
                  buf.(0) <- Float.Array.get vf.(a) l;
                  Float.Array.set vf.(d) l (bi.eval buf)
                done)
      | Ty.Vec _, 2 -> (
          let a, w = vfslot (op1 ()) and c_, _ = vfslot (op2 ())
          and d, _ = vfslot (res ()) in
          match binary_fn name with
          | Some g ->
              fun () ->
                for l = 0 to w - 1 do
                  Float.Array.set vf.(d) l
                    (g (Float.Array.get vf.(a) l) (Float.Array.get vf.(c_) l))
                done
          | None ->
              let buf = [| 0.0; 0.0 |] in
              fun () ->
                for l = 0 to w - 1 do
                  buf.(0) <- Float.Array.get vf.(a) l;
                  buf.(1) <- Float.Array.get vf.(c_) l;
                  Float.Array.set vf.(d) l (bi.eval buf)
                done)
      | _ -> fail "math.%s: unsupported arity %d" name bi.arity)
  | Op.Broadcast -> (
      match (res ()).ty with
      | Ty.Vec (_, Ty.F64) ->
          let a = fslot (op1 ()) and d, w = vfslot (res ()) in
          fun () ->
            let z = vf.(d) and x = f.(a) in
            for l = 0 to w - 1 do
              Float.Array.set z l x
            done
      | Ty.Vec (_, Ty.I64) ->
          let a = islot (op1 ()) and d, w = vislot (res ()) in
          fun () -> Array.fill vi.(d) 0 w i.(a)
      | Ty.Vec (_, Ty.I1) ->
          let a = bslot (op1 ()) and d, w = vbslot (res ()) in
          fun () -> Array.fill vb.(d) 0 w b.(a)
      | _ -> fail "broadcast: unsupported type")
  | Op.VecExtract lane -> (
      match (op1 ()).ty with
      | Ty.Vec (_, Ty.F64) ->
          let a, _ = vfslot (op1 ()) and d = fslot (res ()) in
          fun () -> f.(d) <- Float.Array.get vf.(a) lane
      | Ty.Vec (_, Ty.I64) ->
          let a, _ = vislot (op1 ()) and d = islot (res ()) in
          fun () -> i.(d) <- vi.(a).(lane)
      | Ty.Vec (_, Ty.I1) ->
          let a, _ = vbslot (op1 ()) and d = bslot (res ()) in
          fun () -> b.(d) <- vb.(a).(lane)
      | _ -> fail "vector.extract: unsupported type")
  | Op.VecLoad ->
      let mm = mslot (op1 ()) and ix = islot (op2 ()) and d, w = vfslot (res ()) in
      fun () ->
        let buf = m.(mm) and base = i.(ix) and z = vf.(d) in
        for l = 0 to w - 1 do
          Float.Array.set z l (Float.Array.get buf (base + l))
        done
  | Op.VecStore ->
      let a, w = vfslot (op1 ()) and mm = mslot (op2 ()) and ix = islot (op3 ()) in
      fun () ->
        let buf = m.(mm) and base = i.(ix) and x = vf.(a) in
        for l = 0 to w - 1 do
          Float.Array.set buf (base + l) (Float.Array.get x l)
        done
  | Op.Gather ->
      let mm = mslot (op1 ()) and ix, w = vislot (op2 ()) and d, _ = vfslot (res ()) in
      fun () ->
        let buf = m.(mm) and idx = vi.(ix) and z = vf.(d) in
        for l = 0 to w - 1 do
          Float.Array.set z l (Float.Array.get buf idx.(l))
        done
  | Op.Scatter ->
      let a, w = vfslot (op1 ()) and mm = mslot (op2 ()) and ix, _ = vislot (op3 ()) in
      fun () ->
        let buf = m.(mm) and idx = vi.(ix) and x = vf.(a) in
        for l = 0 to w - 1 do
          Float.Array.set buf idx.(l) (Float.Array.get x l)
        done
  | Op.Iota _ ->
      let d, w = vislot (res ()) in
      fun () ->
        for l = 0 to w - 1 do
          vi.(d).(l) <- l
        done
  | Op.Alloc ->
      let sz = islot (op1 ()) and d = mslot (res ()) in
      fun () -> m.(d) <- Float.Array.make i.(sz) 0.0
  | Op.MemLoad ->
      let mm = mslot (op1 ()) and ix = islot (op2 ()) and d = fslot (res ()) in
      fun () -> f.(d) <- Float.Array.get m.(mm) i.(ix)
  | Op.MemStore ->
      let a = fslot (op1 ()) and mm = mslot (op2 ()) and ix = islot (op3 ()) in
      fun () -> Float.Array.set m.(mm) i.(ix) f.(a)
  | Op.For _ ->
      let lb = islot o.Op.operands.(0)
      and ub = islot o.Op.operands.(1)
      and st = islot o.Op.operands.(2) in
      let inits = Array.sub o.Op.operands 3 (Array.length o.Op.operands - 3) in
      let region = o.Op.regions.(0) in
      let iv, iter_args =
        match region.Op.r_args with
        | iv :: rest -> (islot iv, rest)
        | [] -> fail "scf.for: missing induction arg"
      in
      let init_copy = parallel_copy c inits iter_args in
      let results_copy =
        parallel_copy c (Array.of_list iter_args) (Array.to_list o.Op.results)
      in
      let body =
        compile_region region ~on_yield:(fun yop ->
            parallel_copy c yop.Op.operands iter_args)
      in
      fun () ->
        init_copy ();
        let hi = i.(ub) and step = i.(st) in
        let k = ref i.(lb) in
        while !k < hi do
          i.(iv) <- !k;
          body ();
          k := !k + step
        done;
        results_copy ()
  | Op.If ->
      let c_ = bslot o.Op.operands.(0) in
      let on_yield yop =
        parallel_copy c yop.Op.operands (Array.to_list o.Op.results)
      in
      let then_ = compile_region o.Op.regions.(0) ~on_yield in
      let else_ = compile_region o.Op.regions.(1) ~on_yield in
      fun () -> if b.(c_) then then_ () else else_ ()
  | Op.Yield -> fail "yield outside structured op"
  | Op.Call name ->
      let callee = lazy (c.get name) in
      let nargs = Array.length o.Op.operands in
      fun () ->
        let args = Array.make nargs (Rt.I 0) in
        for k = 0 to nargs - 1 do
          args.(k) <- get_slot c o.Op.operands.(k)
        done;
        let rets = Lazy.force callee args in
        Array.iteri (fun k r -> set_slot c r rets.(k)) o.Op.results
  | Op.Return ->
      let ops = o.Op.operands in
      let box = c.return_box in
      fun () -> box := Array.map (get_slot c) ops

(** Wrap a compiled body into the external calling convention: bind
    arguments to parameter slots, run, read the return box. *)
let finish (c : fctx) (fn : Func.func) ~(body : unit -> unit) : compiled =
  let params = Array.of_list fn.Func.f_params in
  fun (args : Rt.v array) ->
    if Array.length args <> Array.length params then
      fail "@%s: expected %d arguments, got %d" fn.Func.f_name
        (Array.length params) (Array.length args);
    Array.iteri (fun k p -> set_slot c p args.(k)) params;
    c.return_box := [||];
    body ();
    !(c.return_box)

(** Module-level linking: lazily compile functions by name with a given
    per-function compiler, resolving unknown names against the extern
    registry and tolerating recursion through a forward reference. *)
let module_linker ?(externs : Rt.registry = Rt.create_registry ())
    (m : Func.modl)
    (compile_func : get:(string -> compiled) -> Func.func -> compiled) :
    string -> compiled =
  let cache : (string, compiled) Hashtbl.t = Hashtbl.create 8 in
  let rec get (name : string) : compiled =
    match Hashtbl.find_opt cache name with
    | Some c -> c
    | None -> (
        match Func.find_func m name with
        | Some f ->
            (* install a forward reference to tolerate recursion *)
            let fwd = ref (fun _ -> fail "recursive call before compilation") in
            Hashtbl.replace cache name (fun args -> !fwd args);
            let c = compile_func ~get f in
            fwd := c;
            Hashtbl.replace cache name c;
            c
        | None ->
            let ext = Rt.lookup externs name in
            Hashtbl.replace cache name ext;
            ext)
  in
  get

(* The closure engine's region compiler: one thunk per op, dispatched
   through an array of closures. *)
let rec closure_region (c : fctx) ~(on_yield : Op.op -> unit -> unit)
    (r : Op.region) : unit -> unit =
  let thunks =
    List.map
      (fun (o : Op.op) ->
        match o.Op.kind with
        | Op.Yield -> on_yield o
        | _ -> compile_op c ~compile_region:(closure_region c) o)
      r.Op.r_ops
    |> Array.of_list
  in
  fun () ->
    for k = 0 to Array.length thunks - 1 do
      (Array.unsafe_get thunks k) ()
    done

let compile_func ~(get : string -> compiled) (fn : Func.func) : compiled =
  let c = make_fctx fn ~get in
  let body =
    closure_region c fn.Func.f_body ~on_yield:(fun _ ->
        fail "yield at function top level")
  in
  finish c fn ~body

(* Compile a whole module; returns a lazy per-function runner lookup. *)
let compile_module ?externs (m : Func.modl) : string -> compiled =
  module_linker ?externs m (fun ~get f -> compile_func ~get f)

(** Compile and run one function of a module. *)
let run ?externs (m : Func.modl) (name : string) (args : Rt.v array) :
    Rt.v array =
  (compile_module ?externs m) name args
