(** Translation validation: per-pass symbolic equivalence checking.

    Each IR function is mapped to a normalized, hash-consed symbolic term
    DAG — one term per live-out value, per memory-effect footprint (a
    store chain per memref root) and per observable event (calls, and
    loops that contain them).  Two functions are declared equivalent
    when their normalized summaries are tag-identical.

    Normalization applies one law, and a bitwise-true one on IEEE
    doubles: a select between equal arms is that arm.  CSE, LICM and
    DCE change sharing, placement and liveness only, so hash consing
    alone proves them.  No constant is folded and no algebraic
    identity is applied: [x + 0.0] is not [x] (at [x = -0.0]), a
    reassociated float add and a wrong constant refute, and so does
    reusing a load across an intervening store (stale CSE), since no
    load-forwarding rule is included.

    On divergence the checker reports the first differing obligation as
    a structured counterexample; on success it emits a certificate
    carrying IR digests, obligation count and wall time. *)

type counterexample = {
  cx_func : string;  (** function whose summaries diverge *)
  cx_site : string;
      (** first diverging obligation: ["result i"], ["memory <root>"],
          ["effect i"] or ["module"] for a function-set mismatch *)
  cx_src : string;  (** normalized symbolic term on the source side *)
  cx_tgt : string;  (** normalized symbolic term on the target side *)
}

type verdict =
  | Proved
  | Refuted of counterexample
  | Unknown of string
      (** normalization could not decide; the string documents why
          (term budget, unsupported construct).  A warning, not an
          error. *)

type cert = {
  c_pass : string;  (** pass id, e.g. ["cse"] *)
  c_src_digest : string;  (** MD5 of the printed input IR *)
  c_tgt_digest : string;  (** MD5 of the printed output IR *)
  c_obligations : int;  (** proof obligations discharged (or attempted) *)
  c_verdict : verdict;
  c_ms : float;  (** validation wall time, milliseconds *)
}

val module_digest : Ir.Func.modl -> string
(** MD5 hex digest of the module's printed form. *)

val check_module : pass:string -> Ir.Func.modl -> Ir.Func.modl -> cert
(** [check_module ~pass src tgt] proves every function of [src]
    equivalent to its namesake in [tgt] (and that [tgt] adds none).
    Never raises; any internal failure becomes an [Unknown] verdict. *)

val self_check : Ir.Func.modl -> (int, string) result
(** Normalization sanity on a module: evaluating twice in one table
    yields tag-identical summaries (determinism), and rebuilding every
    reachable term bottom-up through the smart constructors is the
    identity (the rewrite system has reached its normal form — oriented
    and terminating, no obligation loops).  [Ok n] returns the number of
    distinct terms checked. *)

val is_refuted : cert -> bool
val is_unknown : cert -> bool
val verdict_name : verdict -> string
(** ["proved"], ["refuted"] or ["unknown"]. *)

val cert_to_json : cert -> string
(** One JSON object: pass, digests, obligations, verdict, ms, plus the
    counterexample or unknown reason when present. *)

val diag_of_cert : cert -> Easyml.Diag.t option
(** [None] for {!Proved}; an [Error]-severity diagnostic (code
    [transval-refuted]) for {!Refuted}; a [Warning] (code
    [transval-unknown]) for {!Unknown}.  The certificate's pass id is
    carried in the diagnostic's [pass] field. *)
