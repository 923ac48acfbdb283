(** Translation validation: per-pass symbolic equivalence checking.

    The validator answers one question: did this pass application
    preserve semantics?  It does so by symbolic evaluation — both the
    input and the output function are folded into normalized, maximally
    shared term DAGs ({!Ir.Hashcons}), and equivalence is tag equality
    on three families of obligations:

    - one term per function result ("live-out value");
    - one store-chain term per memref root the function writes
      ("memory-effect footprint");
    - one event term per observable side effect in program order
      (calls, and loops/branches containing them).

    Soundness rests on the smart constructors applying only identities
    that are bitwise-true on IEEE doubles (or are exactly the foldings
    {!Passes.Const_fold} performs, so validator and pass agree by
    construction).  Completeness — zero false refutations over the
    pipeline — rests on the constructors applying {e all} identities the
    passes are licensed to use, and on the passes' structural contract:
    no pass reorders, duplicates, introduces or removes impure ops
    (stores, calls, allocs, loops, branches), which keeps the serial
    numbers the evaluator assigns to loops/calls/allocs stable across a
    pass (they are assigned in program order).  CSE and DCE may remove
    {e loads}; loads carry no serial and disappear from the DAG with
    their uses, so that is invisible, as is removal of a loop or branch
    whose body is pure and whose results are dead (no event is emitted
    for effect-free control flow).

    Loop bodies are evaluated once, from the concrete heap at entry,
    with the induction variable and loop-carried values as fresh
    universally quantified variables.  This is sound because no
    normalization rule inspects heap internals: equality of the
    resulting loop summaries generalizes over the embedded entry heap
    subterms. *)

open Ir

type const = KF of float | KI of int | KB of bool

let fbits = Int64.bits_of_float

let const_equal (a : const) (b : const) : bool =
  match (a, b) with
  | KF x, KF y -> Int64.equal (fbits x) (fbits y)
  | KI x, KI y -> Int.equal x y
  | KB x, KB y -> Bool.equal x y
  | _ -> false

let const_hash = function
  | KF x -> 3 + (19 * Int64.to_int (fbits x))
  | KI x -> 5 + (19 * x)
  | KB x -> if x then 7 else 11

(* -- term DAG -------------------------------------------------------- *)

(* The node/term knot: nodes hold hash-consed children ([Term.t]), and
   [Term] is the hashcons functor applied to nodes.  Child comparison is
   physical equality, which for interned terms coincides with structural
   equality. *)
module rec Node : sig
  type t =
    | Cst of const
    | Param of int  (** function parameter, by position *)
    | Iv of int  (** induction variable of the loop with this serial *)
    | Iter of int * int  (** loop-carried value [slot] of loop [serial] *)
    | AllocA of int * Term.t  (** allocation [serial], size term; a root *)
    | Prim of Op.kind * Term.t array  (** uninterpreted pure op *)
    | IteV of Term.t * Term.t * Term.t  (** value select *)
    | Bcast of int * Term.t  (** splat to width [w] *)
    | IotaV of int  (** [0, 1, ..., w-1] *)
    | LoadS of Term.t * Term.t  (** scalar load: heap, index *)
    | LoadV of int * Term.t * Term.t  (** vector load: width, heap, index *)
    | LoadG of Term.t * Term.t  (** gather: heap, index vector *)
    | CallRes of int * int  (** result [slot] of call [serial] *)
    | LoopRes of Term.t * int  (** result [slot] of a {!Loop} term *)
    | HInit of Term.t  (** initial heap of a root *)
    | HStoreS of Term.t * Term.t * Term.t  (** heap, index, value *)
    | HStoreV of Term.t * Term.t * Term.t  (** heap, index, vector *)
    | HScatter of Term.t * Term.t * Term.t  (** heap, index vec, vector *)
    | HCallOut of int * int * Term.t
        (** heap of memref argument [argpos] after call [serial],
            havocked from the heap-before *)
    | HLoopOut of Term.t * Term.t  (** heap of [root] after a {!Loop} *)
    | HIte of Term.t * Term.t * Term.t  (** cond, then-heap, else-heap *)
    | Loop of {
        serial : int;
        bounds : Term.t array;  (** lb, ub, step *)
        inits : Term.t array;
        yields : Term.t array;  (** body yields under Iv/Iter variables *)
        heaps : (Term.t * Term.t) array;
            (** (root, heap-after-one-iteration), roots sorted by tag *)
        evs : Term.t array;  (** body events, in program order *)
      }
    | EvCall of int * string * Term.t array
        (** serial, callee, value arguments ++ heap-ins of memref args *)
    | EvLoop of Term.t  (** an effectful loop ran *)
    | EvIte of Term.t * Term.t array * Term.t array
        (** cond, then-events, else-events *)

  val equal : t -> t -> bool
  val hash : t -> int
end = struct
  type t =
    | Cst of const
    | Param of int
    | Iv of int
    | Iter of int * int
    | AllocA of int * Term.t
    | Prim of Op.kind * Term.t array
    | IteV of Term.t * Term.t * Term.t
    | Bcast of int * Term.t
    | IotaV of int
    | LoadS of Term.t * Term.t
    | LoadV of int * Term.t * Term.t
    | LoadG of Term.t * Term.t
    | CallRes of int * int
    | LoopRes of Term.t * int
    | HInit of Term.t
    | HStoreS of Term.t * Term.t * Term.t
    | HStoreV of Term.t * Term.t * Term.t
    | HScatter of Term.t * Term.t * Term.t
    | HCallOut of int * int * Term.t
    | HLoopOut of Term.t * Term.t
    | HIte of Term.t * Term.t * Term.t
    | Loop of {
        serial : int;
        bounds : Term.t array;
        inits : Term.t array;
        yields : Term.t array;
        heaps : (Term.t * Term.t) array;
        evs : Term.t array;
      }
    | EvCall of int * string * Term.t array
    | EvLoop of Term.t
    | EvIte of Term.t * Term.t array * Term.t array

  let taeq (a : Term.t array) (b : Term.t array) : bool =
    Array.length a = Array.length b
    &&
    try
      Array.iter2 (fun (x : Term.t) y -> if x != y then raise Exit) a b;
      true
    with Exit -> false

  let tpeq (a : (Term.t * Term.t) array) (b : (Term.t * Term.t) array) : bool
      =
    Array.length a = Array.length b
    &&
    try
      Array.iter2
        (fun ((r1, h1) : Term.t * Term.t) (r2, h2) ->
          if r1 != r2 || h1 != h2 then raise Exit)
        a b;
      true
    with Exit -> false

  let equal (a : t) (b : t) : bool =
    match (a, b) with
    | Cst x, Cst y -> const_equal x y
    | Param i, Param j | Iv i, Iv j | IotaV i, IotaV j -> i = j
    | Iter (s, k), Iter (s', k')
    | CallRes (s, k), CallRes (s', k') ->
        s = s' && k = k'
    | AllocA (s, n), AllocA (s', n') -> s = s' && n == n'
    | Prim (k, xs), Prim (k', ys) -> k = k' && taeq xs ys
    | IteV (c, x, y), IteV (c', x', y')
    | HIte (c, x, y), HIte (c', x', y') ->
        c == c' && x == x' && y == y'
    | Bcast (w, x), Bcast (w', x') -> w = w' && x == x'
    | LoadS (h, i), LoadS (h', i') | LoadG (h, i), LoadG (h', i') ->
        h == h' && i == i'
    | LoadV (w, h, i), LoadV (w', h', i') -> w = w' && h == h' && i == i'
    | LoopRes (l, k), LoopRes (l', k') -> l == l' && k = k'
    | HInit r, HInit r' -> r == r'
    | HStoreS (h, i, v), HStoreS (h', i', v')
    | HStoreV (h, i, v), HStoreV (h', i', v')
    | HScatter (h, i, v), HScatter (h', i', v') ->
        h == h' && i == i' && v == v'
    | HCallOut (s, k, h), HCallOut (s', k', h') -> s = s' && k = k' && h == h'
    | HLoopOut (l, r), HLoopOut (l', r') -> l == l' && r == r'
    | Loop l, Loop l' ->
        l.serial = l'.serial && taeq l.bounds l'.bounds
        && taeq l.inits l'.inits && taeq l.yields l'.yields
        && tpeq l.heaps l'.heaps && taeq l.evs l'.evs
    | EvCall (s, n, xs), EvCall (s', n', ys) ->
        s = s' && String.equal n n' && taeq xs ys
    | EvLoop l, EvLoop l' -> l == l'
    | EvIte (c, xs, ys), EvIte (c', xs', ys') ->
        c == c' && taeq xs xs' && taeq ys ys'
    | _ -> false

  let hc (h : int) (t : Term.t) = (h * 65599) + t.Term.tag + 1
  let hca (h : int) (a : Term.t array) = Array.fold_left hc h a

  let hash (n : t) : int =
    (match n with
    | Cst c -> 2 + (31 * const_hash c)
    | Param i -> 3 + (31 * i)
    | Iv s -> 5 + (31 * s)
    | Iter (s, k) -> 7 + (31 * s) + (977 * k)
    | AllocA (s, sz) -> hc (11 + (31 * s)) sz
    | Prim (k, xs) -> hca (13 + (31 * Hashtbl.hash k)) xs
    | IteV (c, x, y) -> hc (hc (hc 17 c) x) y
    | Bcast (w, x) -> hc (19 + (31 * w)) x
    | IotaV w -> 23 + (31 * w)
    | LoadS (h, i) -> hc (hc 29 h) i
    | LoadV (w, h, i) -> hc (hc (31 + (37 * w)) h) i
    | LoadG (h, i) -> hc (hc 37 h) i
    | CallRes (s, k) -> 41 + (31 * s) + (977 * k)
    | LoopRes (l, k) -> hc (43 + (977 * k)) l
    | HInit r -> hc 47 r
    | HStoreS (h, i, v) -> hc (hc (hc 53 h) i) v
    | HStoreV (h, i, v) -> hc (hc (hc 59 h) i) v
    | HScatter (h, i, v) -> hc (hc (hc 61 h) i) v
    | HCallOut (s, k, h) -> hc (67 + (31 * s) + (977 * k)) h
    | HLoopOut (l, r) -> hc (hc 71 l) r
    | HIte (c, x, y) -> hc (hc (hc 73 c) x) y
    | Loop l ->
        hca
          (hca
             (hca
                (Array.fold_left
                   (fun acc (r, h) -> hc (hc acc r) h)
                   (hca (79 + (31 * l.serial)) l.bounds)
                   l.heaps)
                l.inits)
             l.yields)
          l.evs
    | EvCall (s, nm, xs) -> hca (83 + (31 * s) + Hashtbl.hash nm) xs
    | EvLoop l -> hc 89 l
    | EvIte (c, xs, ys) -> hca (hca (hc 97 c) xs) ys)
    land max_int
end

and Term : (Hashcons.S with type node = Node.t) = Hashcons.Make (Node)

(* -- construction context -------------------------------------------- *)

exception Budget

type ctx = { tbl : Term.table; budget : int }

let create_ctx ?(budget = 2_000_000) () =
  { tbl = Term.create 4096; budget }

let mk (c : ctx) (n : Node.t) : Term.t =
  if Term.length c.tbl > c.budget then raise Budget;
  Term.hashcons c.tbl n

let node (t : Term.t) : Node.t = t.Term.node

(* -- normalizing smart constructors ---------------------------------- *)

let cst c k = mk c (Node.Cst k)
let cf c x = cst c (KF x)
let ci c x = cst c (KI x)
let cb c x = cst c (KB x)

let fview (t : Term.t) =
  match node t with Node.Cst (KF x) -> Some x | _ -> None

let iview (t : Term.t) =
  match node t with Node.Cst (KI x) -> Some x | _ -> None

let bview (t : Term.t) =
  match node t with Node.Cst (KB x) -> Some x | _ -> None

(* Canonicalize's [is_c] looks through broadcasts of constants; mirror
   that: a splat of a float constant counts as that constant. *)
let rec fview_splat (t : Term.t) =
  match node t with
  | Node.Cst (KF x) -> Some x
  | Node.Bcast (_, s) -> fview_splat s
  | _ -> None

(* A vector select whose condition is a splat of a known boolean
   resolves to one arm, like a scalar select on a constant. *)
let rec bview_splat (t : Term.t) =
  match node t with
  | Node.Cst (KB x) -> Some x
  | Node.Bcast (_, s) -> bview_splat s
  | _ -> None

let is_fzero t =
  match fview_splat t with Some x -> Float.equal x 0.0 | None -> false

let is_fone t =
  match fview_splat t with Some x -> Float.equal x 1.0 | None -> false

(* Scalar constant folding — the exact semantics of
   {!Passes.Const_fold.eval_op}: OCaml float primitives are IEEE, the
   comparison operators below are IEEE float compares (NaN
   makes every comparison but [<>] false), and math builtins fold only
   on non-NaN arguments to finite results. *)
let fold_scalar (c : ctx) (kind : Op.kind) (args : Term.t array) :
    Term.t option =
  let f k = fview args.(k) in
  let i k = iview args.(k) in
  let b k = bview args.(k) in
  let open Op in
  match kind with
  | BinF op -> (
      match (f 0, f 1) with
      | Some x, Some y ->
          let g =
            match op with
            | FAdd -> ( +. )
            | FSub -> ( -. )
            | FMul -> ( *. )
            | FDiv -> ( /. )
            | FMin -> Float.min
            | FMax -> Float.max
            | FRem -> Float.rem
          in
          Some (cf c (g x y))
      | _ -> None)
  | NegF -> ( match f 0 with Some x -> Some (cf c (-.x)) | None -> None)
  | BinI op -> (
      match (i 0, i 1) with
      | Some x, Some y -> (
          match op with
          | IAdd -> Some (ci c (x + y))
          | ISub -> Some (ci c (x - y))
          | IMul -> Some (ci c (x * y))
          | IDiv -> if y = 0 then None else Some (ci c (x / y))
          | IRem -> if y = 0 then None else Some (ci c (x mod y)))
      | _ -> None)
  | BinB op -> (
      match (b 0, b 1) with
      | Some x, Some y ->
          Some
            (cb c
               (match op with
               | BAnd -> x && y
               | BOr -> x || y
               | BXor -> x <> y))
      | _ -> None)
  | NotB -> ( match b 0 with Some x -> Some (cb c (not x)) | None -> None)
  | CmpF cmp -> (
      match (f 0, f 1) with
      | Some x, Some y ->
          let g : float -> float -> bool =
            match cmp with
            | Lt -> ( < )
            | Le -> ( <= )
            | Gt -> ( > )
            | Ge -> ( >= )
            | Eq -> ( = )
            | Ne -> ( <> )
          in
          Some (cb c (g x y))
      | _ -> None)
  | CmpI cmp -> (
      match (i 0, i 1) with
      | Some x, Some y ->
          let g : int -> int -> bool =
            match cmp with
            | Lt -> ( < )
            | Le -> ( <= )
            | Gt -> ( > )
            | Ge -> ( >= )
            | Eq -> ( = )
            | Ne -> ( <> )
          in
          Some (cb c (g x y))
      | _ -> None)
  | SIToFP -> (
      match i 0 with Some x -> Some (cf c (float_of_int x)) | None -> None)
  | FPToSI -> (
      match f 0 with Some x -> Some (ci c (int_of_float x)) | None -> None)
  | Math name -> (
      match Easyml.Builtins.find name with
      | None -> None
      | Some bi -> (
          let vals =
            Array.init bi.arity (fun k ->
                match f k with Some x -> x | None -> Float.nan)
          in
          if Array.exists Float.is_nan vals then None
          else
            match bi.eval vals with
            | v when Float.is_finite v -> Some (cf c v)
            | _ -> None))
  | _ -> None

let bcast (c : ctx) ~(w : int) (t : Term.t) : Term.t =
  if w <= 1 then t else mk c (Node.Bcast (w, t))

(* [apply] normalizes a pure op over already-normalized operands.  The
   broadcast law in [elementwise] — op over all-splat operands is the
   splat of the scalar op — lets [check_widen] collapse widened bodies;
   recursion is on strictly smaller (scalar) operands, so it
   terminates. *)
let rec apply (c : ctx) (kind : Op.kind) (args : Term.t array) : Term.t =
  match kind with
  | Op.BinF op -> binf c op args.(0) args.(1)
  | Op.NegF -> negf c args.(0)
  | Op.BinI op -> bini c op args.(0) args.(1)
  | Op.BinB _ | Op.CmpF _ | Op.CmpI _ | Op.SIToFP | Op.FPToSI | Op.Math _ ->
      fold_or_elementwise c kind args
  | Op.NotB -> notb c args.(0)
  | Op.Select -> ite c args.(0) args.(1) args.(2)
  | Op.VecExtract lane -> vext c lane args.(0)
  | _ -> mk c (Node.Prim (kind, args))

and fold_or_elementwise c kind args =
  match fold_scalar c kind args with
  | Some t -> t
  | None -> elementwise c kind args

and elementwise c kind args =
  let w =
    Array.fold_left
      (fun acc t -> match node t with Node.Bcast (w, _) -> max acc w | _ -> acc)
      1 args
  in
  if
    w > 1
    && Array.for_all
         (fun t ->
           match node t with Node.Bcast (w', _) -> w' = w | _ -> false)
         args
  then
    let scalars =
      Array.map
        (fun t ->
          match node t with Node.Bcast (_, s) -> s | _ -> assert false)
        args
    in
    bcast c ~w (apply c kind scalars)
  else mk c (Node.Prim (kind, args))

and binf c op a b =
  match fold_scalar c (Op.BinF op) [| a; b |] with
  | Some t -> t
  | None -> (
      (* Canonicalize's IEEE-safe identities, verbatim *)
      match op with
      | Op.FAdd when is_fzero b -> a
      | Op.FAdd when is_fzero a -> b
      | Op.FSub when is_fzero b -> a
      | Op.FMul when is_fone b -> a
      | Op.FMul when is_fone a -> b
      | Op.FDiv when is_fone b -> a
      | _ -> elementwise c (Op.BinF op) [| a; b |])

and negf c a =
  match fold_scalar c Op.NegF [| a |] with
  | Some t -> t
  | None -> (
      match node a with
      | Node.Prim (Op.NegF, xs) -> xs.(0)
      | _ -> elementwise c Op.NegF [| a |])

and notb c a =
  match fold_scalar c Op.NotB [| a |] with
  | Some t -> t
  | None -> (
      match node a with
      | Node.Prim (Op.NotB, xs) -> xs.(0)
      | _ -> elementwise c Op.NotB [| a |])

and bini c op a b =
  match fold_scalar c (Op.BinI op) [| a; b |] with
  | Some t -> t
  | None -> (
      match (op, node a, node b) with
      | Op.IMul, _, Node.Cst (KI 1) -> a
      | Op.IMul, Node.Cst (KI 1), _ -> b
      | Op.IAdd, _, Node.Cst (KI 0) -> a
      | Op.IAdd, Node.Cst (KI 0), _ -> b
      | _ -> elementwise c (Op.BinI op) [| a; b |])

and ite c cond a b =
  match bview_splat cond with
  | Some true -> a
  | Some false -> b
  | None ->
      if a == b then a
      else (
        match (node cond, node a, node b) with
        | Node.Bcast (w, c'), Node.Bcast (w2, a'), Node.Bcast (w3, b')
          when w = w2 && w = w3 ->
            bcast c ~w (ite c c' a' b')
        | _ -> mk c (Node.IteV (cond, a, b)))

and vext c lane a =
  match node a with
  | Node.Bcast (_, s) -> s
  | Node.IotaV _ -> ci c lane
  | _ -> mk c (Node.Prim (Op.VecExtract lane, [| a |]))

(* Heap select: mirror the value-level constant-condition rules so an
   [scf.if] folded on a constant condition and its source agree on
   merged heaps. *)
let hite c cond h1 h2 =
  if h1 == h2 then h1
  else
    match bview_splat cond with
    | Some true -> h1
    | Some false -> h2
    | None -> mk c (Node.HIte (cond, h1, h2))

(* -- symbolic evaluator ---------------------------------------------- *)

type est = {
  c : ctx;
  vals : (int, Term.t) Hashtbl.t;  (** Value.id -> normalized term *)
  mutable heaps : (Term.t * Term.t) list;  (** root -> current heap *)
  mutable evs : Term.t list;  (** events, reversed *)
  mutable next_loop : int;
  mutable next_call : int;
  mutable next_alloc : int;
}

let lookup (st : est) (v : Value.t) : Term.t =
  match Hashtbl.find_opt st.vals v.Value.id with
  | Some t -> t
  | None ->
      failwith (Printf.sprintf "transval: use of undefined value %%%d" v.id)

let hinit (st : est) (root : Term.t) : Term.t = mk st.c (Node.HInit root)

let heap_of (st : est) (root : Term.t) : Term.t =
  match List.assq_opt root st.heaps with
  | Some h -> h
  | None ->
      let h = hinit st root in
      st.heaps <- (root, h) :: st.heaps;
      h

let set_heap (st : est) (root : Term.t) (h : Term.t) : unit =
  st.heaps <- (root, h) :: List.filter (fun (r, _) -> r != root) st.heaps

let heap_at (st : est) (snapshot : (Term.t * Term.t) list) (root : Term.t) :
    Term.t =
  match List.assq_opt root snapshot with
  | Some h -> h
  | None -> hinit st root

let rec eval_op (st : est) (o : Op.op) : unit =
  let tm k = lookup st o.Op.operands.(k) in
  let bind1 t = Hashtbl.replace st.vals o.Op.results.(0).Value.id t in
  match o.Op.kind with
  | Op.ConstF x -> bind1 (cf st.c x)
  | Op.ConstI x -> bind1 (ci st.c x)
  | Op.ConstB x -> bind1 (cb st.c x)
  | Op.BinF _ | Op.NegF | Op.BinI _ | Op.BinB _ | Op.NotB | Op.CmpF _
  | Op.CmpI _ | Op.Select | Op.SIToFP | Op.FPToSI | Op.Math _
  | Op.VecExtract _ ->
      bind1 (apply st.c o.Op.kind (Array.map (lookup st) o.Op.operands))
  | Op.Broadcast ->
      bind1 (bcast st.c ~w:(Ty.width o.Op.results.(0).Value.ty) (tm 0))
  | Op.Iota w -> bind1 (mk st.c (Node.IotaV w))
  | Op.Alloc ->
      let s = st.next_alloc in
      st.next_alloc <- s + 1;
      let root = mk st.c (Node.AllocA (s, tm 0)) in
      set_heap st root (hinit st root);
      bind1 root
  | Op.MemLoad ->
      let root = tm 0 in
      bind1 (mk st.c (Node.LoadS (heap_of st root, tm 1)))
  | Op.VecLoad ->
      let w = Ty.width o.Op.results.(0).Value.ty in
      let root = tm 0 in
      bind1 (mk st.c (Node.LoadV (w, heap_of st root, tm 1)))
  | Op.Gather ->
      let root = tm 0 in
      bind1 (mk st.c (Node.LoadG (heap_of st root, tm 1)))
  | Op.MemStore ->
      let root = tm 1 in
      set_heap st root (mk st.c (Node.HStoreS (heap_of st root, tm 2, tm 0)))
  | Op.VecStore ->
      let root = tm 1 in
      set_heap st root (mk st.c (Node.HStoreV (heap_of st root, tm 2, tm 0)))
  | Op.Scatter ->
      let root = tm 1 in
      set_heap st root (mk st.c (Node.HScatter (heap_of st root, tm 2, tm 0)))
  | Op.Call name ->
      let s = st.next_call in
      st.next_call <- s + 1;
      let args = Array.map (lookup st) o.Op.operands in
      (* the call observes the current heap of every memref argument *)
      let obs = ref [] in
      Array.iteri
        (fun k (v : Value.t) ->
          if v.Value.ty = Ty.Memref then obs := heap_of st args.(k) :: !obs)
        o.Op.operands;
      let ev =
        mk st.c
          (Node.EvCall
             (s, name, Array.append args (Array.of_list (List.rev !obs))))
      in
      st.evs <- ev :: st.evs;
      (* ...and may write them: havoc each memref argument's heap *)
      Array.iteri
        (fun k (v : Value.t) ->
          if v.Value.ty = Ty.Memref then
            set_heap st args.(k)
              (mk st.c (Node.HCallOut (s, k, heap_of st args.(k)))))
        o.Op.operands;
      Array.iteri
        (fun k (r : Value.t) ->
          Hashtbl.replace st.vals r.Value.id (mk st.c (Node.CallRes (s, k))))
        o.Op.results
  | Op.If ->
      let cond = tm 0 in
      let entry = st.heaps and outer_evs = st.evs in
      st.evs <- [];
      let then_rets = eval_region st o.Op.regions.(0) in
      let then_heaps = st.heaps
      and then_evs = Array.of_list (List.rev st.evs) in
      st.heaps <- entry;
      st.evs <- [];
      let else_rets = eval_region st o.Op.regions.(1) in
      let else_heaps = st.heaps
      and else_evs = Array.of_list (List.rev st.evs) in
      st.evs <- outer_evs;
      st.heaps <- entry;
      let roots =
        List.fold_left
          (fun acc (r, _) -> if List.memq r acc then acc else r :: acc)
          (List.rev_map fst then_heaps)
          else_heaps
      in
      List.iter
        (fun root ->
          let h1 = heap_at st then_heaps root
          and h2 = heap_at st else_heaps root in
          set_heap st root (hite st.c cond h1 h2))
        (List.rev roots);
      if Array.length then_evs > 0 || Array.length else_evs > 0 then
        st.evs <- mk st.c (Node.EvIte (cond, then_evs, else_evs)) :: st.evs;
      Array.iteri
        (fun k (r : Value.t) ->
          Hashtbl.replace st.vals r.Value.id
            (ite st.c cond then_rets.(k) else_rets.(k)))
        o.Op.results
  | Op.For _ ->
      let s = st.next_loop in
      st.next_loop <- s + 1;
      let bounds = [| tm 0; tm 1; tm 2 |] in
      let inits =
        Array.init (Array.length o.Op.operands - 3) (fun k -> tm (k + 3))
      in
      let r = o.Op.regions.(0) in
      (match r.Op.r_args with
      | iv :: iters ->
          Hashtbl.replace st.vals iv.Value.id (mk st.c (Node.Iv s));
          List.iteri
            (fun k (it : Value.t) ->
              Hashtbl.replace st.vals it.Value.id (mk st.c (Node.Iter (s, k))))
            iters
      | [] -> failwith "transval: scf.for region without induction variable");
      let entry = st.heaps and outer_evs = st.evs in
      st.evs <- [];
      let yields = eval_region st r in
      let body_evs = Array.of_list (List.rev st.evs) in
      let changed =
        st.heaps
        |> List.filter (fun (root, h) -> heap_at st entry root != h)
        |> List.sort (fun ((a : Term.t), _) (b, _) ->
               compare a.Term.tag b.Term.tag)
        |> Array.of_list
      in
      let loop =
        mk st.c (Node.Loop { serial = s; bounds; inits; yields;
                             heaps = changed; evs = body_evs })
      in
      st.evs <- outer_evs;
      st.heaps <- entry;
      Array.iter
        (fun (root, _) ->
          set_heap st root (mk st.c (Node.HLoopOut (loop, root))))
        changed;
      if Array.length body_evs > 0 || Array.length changed > 0 then
        st.evs <- mk st.c (Node.EvLoop loop) :: st.evs;
      Array.iteri
        (fun k (res : Value.t) ->
          Hashtbl.replace st.vals res.Value.id
            (mk st.c (Node.LoopRes (loop, k))))
        o.Op.results
  | Op.Yield | Op.Return ->
      (* handled by eval_region *)
      ()

and eval_region (st : est) (r : Op.region) : Term.t array =
  let out = ref [||] in
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Yield | Op.Return -> out := Array.map (lookup st) o.Op.operands
      | _ -> eval_op st o)
    r.Op.r_ops;
  !out

(* -- function summaries ---------------------------------------------- *)

type summary = {
  s_rets : Term.t array;
  s_heaps : (Term.t * Term.t) array;  (** (root, heap), roots by tag *)
  s_evs : Term.t array;
}

let eval_func (c : ctx) ?(param : (int -> Value.t -> Term.t) option)
    (f : Func.func) : summary =
  let st =
    { c; vals = Hashtbl.create 256; heaps = []; evs = []; next_loop = 0;
      next_call = 0; next_alloc = 0 }
  in
  let param =
    Option.value param ~default:(fun i _ -> mk c (Node.Param i))
  in
  List.iteri
    (fun i (p : Value.t) -> Hashtbl.replace st.vals p.Value.id (param i p))
    f.Func.f_params;
  let rets = eval_region st f.Func.f_body in
  let heaps =
    st.heaps
    |> List.filter (fun ((root : Term.t), (h : Term.t)) ->
           match node h with
           | Node.HInit r when r == root -> false
           | _ -> true)
    |> List.sort (fun ((a : Term.t), _) (b, _) -> compare a.Term.tag b.Term.tag)
    |> Array.of_list
  in
  { s_rets = rets; s_heaps = heaps; s_evs = Array.of_list (List.rev st.evs) }

(* -- term printing (for counterexamples) ----------------------------- *)

let prim_name (k : Op.kind) : string =
  match k with
  | Op.BinF b -> Op.fbin_short b
  | Op.NegF -> "fneg"
  | Op.BinI b -> Op.ibin_short b
  | Op.BinB b -> Op.bbin_short b
  | Op.NotB -> "not"
  | Op.CmpF cmp -> "fcmp." ^ Op.cmp_name cmp
  | Op.CmpI cmp -> "icmp." ^ Op.cmp_name cmp
  | Op.Math m -> m
  | Op.SIToFP -> "sitofp"
  | Op.FPToSI -> "fptosi"
  | Op.VecExtract lane -> Printf.sprintf "extract.%d" lane
  | k -> Op.kind_name k

let loop_serial (l : Term.t) : int =
  match node l with Node.Loop r -> r.serial | _ -> -1

let term_to_string (t : Term.t) : string =
  let buf = Buffer.create 128 in
  let budget = ref 160 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec go d (t : Term.t) =
    decr budget;
    if !budget <= 0 || d > 10 then Buffer.add_string buf "..."
    else
      let args ts =
        Buffer.add_char buf '(';
        Array.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ", ";
            go (d + 1) x)
          ts;
        Buffer.add_char buf ')'
      in
      match node t with
      | Node.Cst (KF x) -> pf "%.17g" x
      | Node.Cst (KI x) -> pf "%d" x
      | Node.Cst (KB x) -> pf "%b" x
      | Node.Param i -> pf "p%d" i
      | Node.Iv s -> pf "iv%d" s
      | Node.Iter (s, k) -> pf "acc%d.%d" s k
      | Node.AllocA (s, _) -> pf "alloc%d" s
      | Node.Prim (k, xs) ->
          Buffer.add_string buf (prim_name k);
          args xs
      | Node.IteV (c, a, b) ->
          Buffer.add_string buf "ite";
          args [| c; a; b |]
      | Node.Bcast (w, x) ->
          pf "splat<%d>" w;
          args [| x |]
      | Node.IotaV w -> pf "iota<%d>" w
      | Node.LoadS (h, i) ->
          Buffer.add_string buf "load";
          args [| h; i |]
      | Node.LoadV (w, h, i) ->
          pf "loadv<%d>" w;
          args [| h; i |]
      | Node.LoadG (h, i) ->
          Buffer.add_string buf "gather";
          args [| h; i |]
      | Node.CallRes (s, k) -> pf "call%d#%d" s k
      | Node.LoopRes (l, k) -> pf "loop%d#%d" (loop_serial l) k
      | Node.HInit r ->
          Buffer.add_string buf "init";
          args [| r |]
      | Node.HStoreS (h, i, v) ->
          Buffer.add_string buf "store";
          args [| h; i; v |]
      | Node.HStoreV (h, i, v) ->
          Buffer.add_string buf "storev";
          args [| h; i; v |]
      | Node.HScatter (h, i, v) ->
          Buffer.add_string buf "scatter";
          args [| h; i; v |]
      | Node.HCallOut (s, k, h) ->
          pf "callout%d.%d" s k;
          args [| h |]
      | Node.HLoopOut (l, r) ->
          pf "loopout%d" (loop_serial l);
          args [| r |]
      | Node.HIte (c, a, b) ->
          Buffer.add_string buf "hite";
          args [| c; a; b |]
      | Node.Loop l ->
          pf "loop%d" l.serial;
          Buffer.add_char buf '{';
          Buffer.add_string buf "bounds";
          args l.bounds;
          if Array.length l.yields > 0 then begin
            Buffer.add_string buf " yields";
            args l.yields
          end;
          Array.iter
            (fun (r, h) ->
              Buffer.add_string buf " mem";
              args [| r; h |])
            l.heaps;
          Buffer.add_char buf '}'
      | Node.EvCall (s, nm, xs) ->
          pf "call%d:%s" s nm;
          args xs
      | Node.EvLoop l -> pf "evloop%d" (loop_serial l)
      | Node.EvIte (c, xs, ys) ->
          Buffer.add_string buf "evite(";
          go (d + 1) c;
          pf "; then:%d else:%d" (Array.length xs) (Array.length ys);
          Array.iter
            (fun x ->
              Buffer.add_char buf ' ';
              go (d + 1) x)
            (Array.append xs ys);
          Buffer.add_char buf ')'
  in
  go 0 t;
  Buffer.contents buf

(* -- equivalence ----------------------------------------------------- *)

type counterexample = {
  cx_func : string;
  cx_site : string;
  cx_src : string;
  cx_tgt : string;
}

type verdict = Proved | Refuted of counterexample | Unknown of string

type cert = {
  c_pass : string;
  c_src_digest : string;
  c_tgt_digest : string;
  c_obligations : int;
  c_verdict : verdict;
  c_ms : float;
}

let compare_summaries ~(fname : string) (c : ctx) (a : summary) (b : summary)
    : (unit, counterexample) result =
  let cx site sa sb =
    Error { cx_func = fname; cx_site = site; cx_src = sa; cx_tgt = sb }
  in
  if Array.length a.s_rets <> Array.length b.s_rets then
    cx "results"
      (Printf.sprintf "%d results" (Array.length a.s_rets))
      (Printf.sprintf "%d results" (Array.length b.s_rets))
  else
    let rec rets i =
      if i >= Array.length a.s_rets then Ok ()
      else if a.s_rets.(i) == b.s_rets.(i) then rets (i + 1)
      else
        cx
          (Printf.sprintf "result %d" i)
          (term_to_string a.s_rets.(i))
          (term_to_string b.s_rets.(i))
    in
    match rets 0 with
    | Error _ as e -> e
    | Ok () -> (
        let na = Array.length a.s_heaps and nb = Array.length b.s_heaps in
        let rec heaps i j =
          if i >= na && j >= nb then Ok ()
          else
            let untouched root =
              term_to_string (mk c (Node.HInit root))
            in
            if i >= na then
              let root, h = b.s_heaps.(j) in
              cx
                (Printf.sprintf "memory %s" (term_to_string root))
                (untouched root) (term_to_string h)
            else if j >= nb then
              let root, h = a.s_heaps.(i) in
              cx
                (Printf.sprintf "memory %s" (term_to_string root))
                (term_to_string h) (untouched root)
            else
              let ra, ha = a.s_heaps.(i) and rb, hb = b.s_heaps.(j) in
              if ra == rb then
                if ha == hb then heaps (i + 1) (j + 1)
                else
                  cx
                    (Printf.sprintf "memory %s" (term_to_string ra))
                    (term_to_string ha) (term_to_string hb)
              else if ra.Term.tag < rb.Term.tag then
                cx
                  (Printf.sprintf "memory %s" (term_to_string ra))
                  (term_to_string ha) (untouched ra)
              else
                cx
                  (Printf.sprintf "memory %s" (term_to_string rb))
                  (untouched rb) (term_to_string hb)
        in
        match heaps 0 0 with
        | Error _ as e -> e
        | Ok () ->
            if Array.length a.s_evs <> Array.length b.s_evs then
              cx "effects"
                (Printf.sprintf "%d events" (Array.length a.s_evs))
                (Printf.sprintf "%d events" (Array.length b.s_evs))
            else
              let rec evs i =
                if i >= Array.length a.s_evs then Ok ()
                else if a.s_evs.(i) == b.s_evs.(i) then evs (i + 1)
                else
                  cx
                    (Printf.sprintf "effect %d" i)
                    (term_to_string a.s_evs.(i))
                    (term_to_string b.s_evs.(i))
              in
              evs 0)

let obligations_of (s : summary) : int =
  Array.length s.s_rets + Array.length s.s_heaps + Array.length s.s_evs

let module_digest (m : Func.modl) : string =
  Digest.to_hex (Digest.string (Printer.module_to_string m))

let func_digest (f : Func.func) : string =
  Digest.to_hex (Digest.string (Printer.func_to_string f))

let timed (f : unit -> int * verdict) : int * verdict * float =
  let t0 = Unix.gettimeofday () in
  let obligations, verdict =
    try f () with
    | Budget -> (0, Unknown "symbolic term budget exceeded")
    | Stack_overflow -> (0, Unknown "stack overflow during symbolic evaluation")
    | Failure msg -> (0, Unknown msg)
  in
  (obligations, verdict, (Unix.gettimeofday () -. t0) *. 1000.)

let check_module ~(pass : string) (src : Func.modl) (tgt : Func.modl) : cert =
  let obligations, verdict, ms =
    timed (fun () ->
        let c = create_ctx () in
        let obligations = ref 0 in
        let rec go = function
          | [] -> (
              match
                List.find_opt
                  (fun (g : Func.func) ->
                    Option.is_none (Func.find_func src g.Func.f_name))
                  tgt.Func.m_funcs
              with
              | Some g ->
                  Refuted
                    { cx_func = g.Func.f_name; cx_site = "module";
                      cx_src = "(no such function)";
                      cx_tgt = "function present" }
              | None -> Proved)
          | (f : Func.func) :: rest -> (
              match Func.find_func tgt f.Func.f_name with
              | None ->
                  Refuted
                    { cx_func = f.Func.f_name; cx_site = "module";
                      cx_src = "function present";
                      cx_tgt = "(no such function)" }
              | Some g ->
                  let sa = eval_func c f in
                  let sb = eval_func c g in
                  obligations := !obligations + obligations_of sa;
                  (match compare_summaries ~fname:f.Func.f_name c sa sb with
                  | Ok () -> go rest
                  | Error cxe -> Refuted cxe))
        in
        let v = go src.Func.m_funcs in
        (!obligations, v))
  in
  { c_pass = pass; c_src_digest = module_digest src;
    c_tgt_digest = module_digest tgt; c_obligations = obligations;
    c_verdict = verdict; c_ms = ms }

let check_widen ~(w : int) (scalar : Func.func) (vec : Func.func) : cert =
  let obligations, verdict, ms =
    timed (fun () ->
        let c = create_ctx () in
        let s = eval_func c scalar in
        let v =
          eval_func c
            ~param:(fun i _ -> bcast c ~w (mk c (Node.Param i)))
            vec
        in
        let want =
          { s_rets = Array.map (fun t -> bcast c ~w t) s.s_rets;
            s_heaps = [||]; s_evs = [||] }
        in
        let verdict =
          match compare_summaries ~fname:vec.Func.f_name c want v with
          | Ok () -> Proved
          | Error cxe -> Refuted cxe
        in
        (obligations_of want, verdict))
  in
  { c_pass = "widen"; c_src_digest = func_digest scalar;
    c_tgt_digest = func_digest vec; c_obligations = obligations;
    c_verdict = verdict; c_ms = ms }

(* -- normalization self-check ---------------------------------------- *)

(* Rebuild a normalized term bottom-up through the smart constructors.
   If normalization is oriented and terminating, every reachable term is
   already in normal form and the rebuild is the identity. *)
let rec rebuild (memo : (int, Term.t) Hashtbl.t) (c : ctx) (t : Term.t) :
    Term.t =
  match Hashtbl.find_opt memo t.Term.tag with
  | Some r -> r
  | None ->
      let rb x = rebuild memo c x in
      let rba = Array.map rb in
      let r =
        match node t with
        | Node.Cst k -> cst c k
        | Node.Param i -> mk c (Node.Param i)
        | Node.Iv s -> mk c (Node.Iv s)
        | Node.Iter (s, k) -> mk c (Node.Iter (s, k))
        | Node.AllocA (s, n) -> mk c (Node.AllocA (s, rb n))
        | Node.Prim (k, xs) -> apply c k (rba xs)
        | Node.IteV (x, y, z) -> ite c (rb x) (rb y) (rb z)
        | Node.Bcast (w, x) -> bcast c ~w (rb x)
        | Node.IotaV w -> mk c (Node.IotaV w)
        | Node.LoadS (h, i) -> mk c (Node.LoadS (rb h, rb i))
        | Node.LoadV (w, h, i) -> mk c (Node.LoadV (w, rb h, rb i))
        | Node.LoadG (h, i) -> mk c (Node.LoadG (rb h, rb i))
        | Node.CallRes (s, k) -> mk c (Node.CallRes (s, k))
        | Node.LoopRes (l, k) -> mk c (Node.LoopRes (rb l, k))
        | Node.HInit r -> mk c (Node.HInit (rb r))
        | Node.HStoreS (h, i, v) -> mk c (Node.HStoreS (rb h, rb i, rb v))
        | Node.HStoreV (h, i, v) -> mk c (Node.HStoreV (rb h, rb i, rb v))
        | Node.HScatter (h, i, v) -> mk c (Node.HScatter (rb h, rb i, rb v))
        | Node.HCallOut (s, k, h) -> mk c (Node.HCallOut (s, k, rb h))
        | Node.HLoopOut (l, r) -> mk c (Node.HLoopOut (rb l, rb r))
        | Node.HIte (x, y, z) -> hite c (rb x) (rb y) (rb z)
        | Node.Loop l ->
            mk c
              (Node.Loop
                 { l with bounds = rba l.bounds; inits = rba l.inits;
                   yields = rba l.yields;
                   heaps = Array.map (fun (r, h) -> (rb r, rb h)) l.heaps;
                   evs = rba l.evs })
        | Node.EvCall (s, nm, xs) -> mk c (Node.EvCall (s, nm, rba xs))
        | Node.EvLoop l -> mk c (Node.EvLoop (rb l))
        | Node.EvIte (x, xs, ys) -> mk c (Node.EvIte (rb x, rba xs, rba ys))
      in
      Hashtbl.replace memo t.Term.tag r;
      r

let self_check (m : Func.modl) : (int, string) result =
  try
    let c = create_ctx () in
    let sum1 = List.map (fun f -> eval_func c f) m.Func.m_funcs in
    let sum2 = List.map (fun f -> eval_func c f) m.Func.m_funcs in
    let same (a : summary) (b : summary) =
      Array.length a.s_rets = Array.length b.s_rets
      && Array.for_all2 (fun (x : Term.t) y -> x == y) a.s_rets b.s_rets
      && Array.length a.s_evs = Array.length b.s_evs
      && Array.for_all2 (fun (x : Term.t) y -> x == y) a.s_evs b.s_evs
      && Array.length a.s_heaps = Array.length b.s_heaps
      && Array.for_all2
           (fun ((r1, h1) : Term.t * Term.t) (r2, h2) ->
             r1 == r2 && h1 == h2)
           a.s_heaps b.s_heaps
    in
    if not (List.for_all2 same sum1 sum2) then
      Error "evaluation is not deterministic"
    else begin
      let memo = Hashtbl.create 1024 in
      let bad = ref None in
      let check t =
        if rebuild memo c t != t && !bad = None then
          bad := Some (term_to_string t)
      in
      List.iter
        (fun s ->
          Array.iter check s.s_rets;
          Array.iter
            (fun (r, h) ->
              check r;
              check h)
            s.s_heaps;
          Array.iter check s.s_evs)
        sum1;
      match !bad with
      | Some t -> Error ("normalization is not idempotent at " ^ t)
      | None -> Ok (Term.length c.tbl)
    end
  with
  | Budget -> Error "symbolic term budget exceeded"
  | Failure msg -> Error msg

(* -- certificates as diagnostics / JSON ------------------------------ *)

let is_refuted (c : cert) =
  match c.c_verdict with Refuted _ -> true | _ -> false

let is_unknown (c : cert) =
  match c.c_verdict with Unknown _ -> true | _ -> false

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let cert_to_json (c : cert) : string =
  let esc = Easyml.Diag.json_escape in
  let extra =
    match c.c_verdict with
    | Proved -> ""
    | Refuted cx ->
        Printf.sprintf
          ", \"counterexample\": {\"func\": \"%s\", \"site\": \"%s\", \
           \"src\": \"%s\", \"tgt\": \"%s\"}"
          (esc cx.cx_func) (esc cx.cx_site) (esc cx.cx_src) (esc cx.cx_tgt)
    | Unknown reason -> Printf.sprintf ", \"reason\": \"%s\"" (esc reason)
  in
  Printf.sprintf
    "{\"pass\": \"%s\", \"src_digest\": \"%s\", \"tgt_digest\": \"%s\", \
     \"obligations\": %d, \"verdict\": \"%s\", \"ms\": %.3f%s}"
    (esc c.c_pass) (esc c.c_src_digest) (esc c.c_tgt_digest) c.c_obligations
    (verdict_name c.c_verdict) c.c_ms extra

let diag_of_cert (c : cert) : Easyml.Diag.t option =
  match c.c_verdict with
  | Proved -> None
  | Refuted cx ->
      Some
        (Easyml.Diag.makef ~sev:Easyml.Diag.Error ~pass:c.c_pass
           ~code:"transval-refuted"
           "pass '%s' not semantics-preserving: %s, %s diverges: src=%s \
            tgt=%s"
           c.c_pass cx.cx_func cx.cx_site cx.cx_src cx.cx_tgt)
  | Unknown reason ->
      Some
        (Easyml.Diag.makef ~sev:Easyml.Diag.Warning ~pass:c.c_pass
           ~code:"transval-unknown"
           "pass '%s': equivalence undecided: %s" c.c_pass reason)
