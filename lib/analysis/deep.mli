(** Deep verification: structural checks plus a footprint sanity check.

    The plain {!Ir.Verifier} checks types, arities and SSA structure.
    Deep mode adds the interval-powered footprint: an access whose index
    interval is {e entirely} negative can never be in bounds, a definite
    out-of-bounds error.  Possible-OOB is not reported: buffer lengths
    are a caller contract, and every engine checks those accesses at run
    time. *)

val footprint_errors : Ir.Func.func -> Ir.Verifier.error list
(** Accesses that are definitely out of bounds on every execution. *)

val verify_module : Ir.Func.modl -> Ir.Verifier.error list
(** Structural verification plus footprint sanity over every function
    of the module.  The footprint check only runs when the structural
    pass is clean. *)

val verify_module_exn : Ir.Func.modl -> unit
(** @raise Failure with the pretty-printed error list if any check
    fails. *)
