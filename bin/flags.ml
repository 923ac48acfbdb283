(* Flag checks shared by [limpetmlir] and [limpetmlir-bench]: an
   out-of-range value is a [bad-flag] diagnostic naming the flag and exit
   1, before the command does anything. *)

open Cmdliner

let bad_flag ~(flag : string) ~(need : string) (got : string) : 'a =
  Fmt.epr "%a@."
    (Easyml.Diag.pp ~file:"limpetmlir")
    (Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"bad-flag"
       "--%s must be %s, got %s" flag need got);
  exit 1

(* An int flag that must be at least 1 (a count, a stride). *)
let positive (flag : string) (arg : int Term.t) : int Term.t =
  let check n =
    if n < 1 then bad_flag ~flag ~need:"at least 1" (string_of_int n) else n
  in
  Term.(const check $ arg)

(* A float flag that must be positive and finite; NaN and ±inf are
   refused too. *)
let positive_float (flag : string) (arg : float Term.t) : float Term.t =
  let check x =
    if Float.is_finite x && x > 0.0 then x
    else bad_flag ~flag ~need:"positive and finite" (Printf.sprintf "%g" x)
  in
  Term.(const check $ arg)

(* A vector width flag: one of {!Codegen.Config.widths}. *)
let width (arg : int Term.t) : int Term.t =
  let check n =
    match Spec.width_out_of_range n with
    | None -> n
    | Some r -> bad_flag ~flag:r.Spec.flag ~need:r.Spec.need r.Spec.got
  in
  Term.(const check $ arg)
