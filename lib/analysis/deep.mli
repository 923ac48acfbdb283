(** Deep verification: structural checks plus dataflow sanity.

    The plain {!Ir.Verifier} checks types, arities and SSA structure.
    Deep mode layers the analyses on top: definite-initialization of
    local allocs ({!Meminit}) and footprint sanity (an access whose
    index interval is {e entirely} negative, or entirely past the end of
    a constant-sized local alloc, is a definite out-of-bounds error;
    possible-OOB against caller buffers is not reported: their lengths
    are a caller contract, and every engine checks those accesses at
    run time). *)

val alloc_sizes : Interval.state -> Ir.Func.func -> (int, int) Hashtbl.t
(** Constant alloc sizes, by alloc op id. *)

val footprint_errors : Ir.Func.func -> Ir.Verifier.error list
(** Accesses that are definitely out of bounds on every execution. *)

val meminit_errors : Ir.Func.func -> Ir.Verifier.error list
(** {!Meminit.check_func} issues, as verifier errors. *)

val verify_module : Ir.Func.modl -> Ir.Verifier.error list
(** Structural verification plus use-before-def and footprint sanity
    over every function of the module.  Dataflow checks only run when
    the structural pass is clean. *)

val verify_module_exn : Ir.Func.modl -> unit
(** @raise Failure with the pretty-printed error list if any check
    fails. *)
