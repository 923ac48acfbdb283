(** Compiler diagnostics with source locations and severities.

    Shared by the semantic analyzer ({!Sema}) and the lint / check tooling,
    so warnings print uniformly as [file:line:col: severity: message]
    whether they surface during [limpetmlir check] or during compilation. *)

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type t = {
  sev : severity;
  loc : Loc.t;  (** {!Loc.none} for model-level diagnostics *)
  code : string;  (** stable kebab-case identifier, e.g. ["missing-init"] *)
  message : string;
  pass : string option;
      (** compiler pass responsible, for translation-validation findings;
          [None] for source-level diagnostics *)
}

let make ?(sev = Warning) ?(loc = Loc.none) ?pass ~code message =
  { sev; loc; code; message; pass }

let makef ?sev ?loc ?pass ~code fmt =
  Fmt.kstr (fun message -> make ?sev ?loc ?pass ~code message) fmt

let is_error (d : t) = d.sev = Error

(** [pp ~file] prints GCC-style: [file:line:col: severity: message [code]].
    Diagnostics at {!Loc.none} omit the position. *)
let pp ~(file : string) ppf (d : t) =
  let tag = match d.pass with None -> d.code | Some p -> d.code ^ " @" ^ p in
  if d.loc = Loc.none then
    Fmt.pf ppf "%s: %s: %s [%s]" file (severity_name d.sev) d.message tag
  else
    Fmt.pf ppf "%s:%d:%d: %s: %s [%s]" file d.loc.Loc.line d.loc.Loc.col
      (severity_name d.sev) d.message tag

let to_string ~file (d : t) = Fmt.str "%a" (pp ~file) d

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** One JSON object per diagnostic, for [--format=json] consumers.  The
    schema is shared by lint findings and translation-validation findings:
    every object carries a [pass] field, [null] when no compiler pass is
    responsible. *)
let to_json ~(file : string) (d : t) : string =
  let pass =
    match d.pass with
    | None -> "null"
    | Some p -> Printf.sprintf "\"%s\"" (json_escape p)
  in
  Printf.sprintf
    "{\"file\": \"%s\", \"line\": %d, \"col\": %d, \"severity\": \"%s\", \
     \"code\": \"%s\", \"pass\": %s, \"message\": \"%s\"}"
    (json_escape file) d.loc.Loc.line d.loc.Loc.col (severity_name d.sev)
    d.code pass (json_escape d.message)
