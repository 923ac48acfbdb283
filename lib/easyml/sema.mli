(** Semantic analysis: EasyML program -> {!Model.t}.

    Resolves markups, folds parameters into literals (the compile-time
    preprocessor; kernels never load a parameter at run time),
    if-converts conditionals into ternary merges, recognizes
    [diff_X]/[X_init], inlines intermediates into derivative
    expressions, extracts affine decompositions for Rush-Larsen/Sundnes
    (falling back to forward Euler with a warning), and topologically
    orders the surviving definitions. *)

exception Error of string

val analyze : name:string -> Ast.program -> Model.t
(** @raise Error on semantic errors (double assignment, undefined
    variables, cycles, bad markups, non-constant parameters, ...). *)

val analyze_source : name:string -> string -> Model.t
(** Parse + analyze. @raise Error (parse errors are re-raised as Error). *)

val analyze_result : name:string -> string -> (Model.t, string) result
