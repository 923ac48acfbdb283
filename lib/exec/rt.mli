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

val type_name : v -> string

val to_f : v -> float
val to_i : v -> int
val to_b : v -> bool
val to_vf : v -> floatarray
val to_vi : v -> int array
val to_m : v -> floatarray

(** Extern function registry: runtime-library entry points callable from IR
    via [func.call] (the analogue of openCARP's [LUT_interpRow] and
    friends). *)
type registry = (string, v array -> v array) Hashtbl.t

val create_registry : unit -> registry
val register : registry -> string -> (v array -> v array) -> unit
val lookup : registry -> string -> v array -> v array

val buffer : int -> floatarray
(** A fresh zero-initialised buffer. *)
