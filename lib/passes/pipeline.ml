(** Standard optimization pipelines. *)

(** The default kernel pipeline, mirroring the in-tree MLIR passes the
    paper relies on: canonicalize → const-fold → CSE → LICM → (again, since
    hoisting exposes new CSE/folding opportunities) → DCE. *)
let standard : Pass.t list =
  [
    Canonicalize.pass;
    Const_fold.pass;
    Cse.pass;
    Licm.pass;
    Canonicalize.pass;
    Const_fold.pass;
    Cse.pass;
    Dce.pass;
  ]

(** [optimize ?validate m] runs the standard pipeline; [validate], when
    given, is called after every pass with [(pass_name, input, output)]
    for translation validation (see {!Pass.run_pipeline}). *)
let optimize ?(verify = false) ?validate (m : Ir.Func.modl) : unit =
  Pass.run_pipeline ~options:{ Pass.verify_each = verify } ?validate standard m

(** Pass registry for the CLI's [-pass] flag. *)
let by_name : (string * Pass.t) list =
  [
    ("canonicalize", Canonicalize.pass);
    ("const-fold", Const_fold.pass);
    ("cse", Cse.pass);
    ("licm", Licm.pass);
    ("dce", Dce.pass);
  ]
