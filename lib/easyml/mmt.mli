(** MMT (Myokit) → EasyML translator: the "external translators" box of the
    paper's Figure 1, for a practical MMT subset (components, [dot()]
    equations, [use] aliases, unit annotations, [^]/[if]/[piecewise]). *)

exception Error of { line : int; msg : string }

type definition = {
  d_comp : string;  (** owning component *)
  d_var : string;  (** flattened name, [component__var] *)
  d_dot : bool;  (** true for state equations *)
  d_rhs : Ast.expr;
}

type t = {
  name : string;
  inits : (string * float) list;  (** flattened name → initial value *)
  defs : definition list;
}

val parse : string -> t
(** Parse and name-resolve an MMT document. @raise Error. *)

val to_easyml : vm:string -> iion:string -> t -> string
(** Render as EasyML.  [vm]/[iion] (as [comp.var] or flattened) become the
    [Vm]/[Iion] externals; affine gate equations are marked
    [.method(rush_larsen)]; Vm gets a lookup table over [-100, 100] mV
    at step 0.05. *)

val import : vm:string -> iion:string -> string -> Model.t
(** [parse] + [to_easyml] + semantic analysis in one step. *)
