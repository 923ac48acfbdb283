(** Runtime values exchanged between the host, the execution engines and
    extern (runtime library) functions.

    Memrefs are flat [floatarray] buffers (unboxed doubles), matching the
    [memref<?xf64>] views the generated kernels operate on. *)

type v =
  | F of float
  | I of int
  | B of bool
  | VF of floatarray  (** vector<wxf64> *)
  | VI of int array  (** vector<wxi64> *)
  | VB of bool array  (** vector<wxi1> *)
  | M of floatarray  (** memref<?xf64> *)

let type_name = function
  | F _ -> "f64"
  | I _ -> "i64"
  | B _ -> "i1"
  | VF _ -> "vector<f64>"
  | VI _ -> "vector<i64>"
  | VB _ -> "vector<i1>"
  | M _ -> "memref"

let to_f = function F f -> f | v -> invalid_arg ("Rt.to_f: " ^ type_name v)
let to_i = function I i -> i | v -> invalid_arg ("Rt.to_i: " ^ type_name v)
let to_b = function B b -> b | v -> invalid_arg ("Rt.to_b: " ^ type_name v)
let to_vf = function VF a -> a | v -> invalid_arg ("Rt.to_vf: " ^ type_name v)
let to_vi = function VI a -> a | v -> invalid_arg ("Rt.to_vi: " ^ type_name v)
let to_m = function M a -> a | v -> invalid_arg ("Rt.to_m: " ^ type_name v)

(** Extern function registry: runtime-library entry points callable from IR
    via [func.call] (the analogue of openCARP's [LUT_interpRow] and friends). *)
type registry = (string, v array -> v array) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16
let register (r : registry) name f = Hashtbl.replace r name f

let lookup (r : registry) name =
  match Hashtbl.find_opt r name with
  | Some f -> f
  | None -> invalid_arg ("Rt.lookup: unregistered extern " ^ name)

(** A fresh zero-initialised buffer. *)
let buffer (n : int) : floatarray = Float.Array.make n 0.0
