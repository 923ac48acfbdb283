(** The standard optimization pipeline. *)

(** The default kernel pipeline, mirroring the in-tree MLIR passes the
    paper relies on: CSE recovers the sharing the frontend's inlining
    duplicated, LICM hoists what does not depend on the cell out of the
    cell loop, and DCE drops what neither left in use.  Model constants
    are folded once, in the AST-level preprocessor ({!Easyml.Fold}), and
    the lowering emits no integer identity, so each pass runs once. *)
let standard : Pass.t list = [ Cse.pass; Licm.pass; Dce.pass ]

(** [optimize ?validate m] runs the standard pipeline; [validate], when
    given, is called after every pass with [(pass_name, input, output)]
    for translation validation (see {!Pass.run_pipeline}). *)
let optimize ?(verify = false) ?validate (m : Ir.Func.modl) : unit =
  Pass.run_pipeline ~options:{ Pass.verify_each = verify } ?validate standard m
