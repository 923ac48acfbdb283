(** Reference tree-walking interpreter: the semantic oracle the batched
    and native engines are differentially tested against.  Slow and
    allocation-heavy by design. *)

exception Interp_error of string

val run :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> Rt.v array -> Rt.v array
(** Interpret one function of a module. @raise Interp_error. *)
