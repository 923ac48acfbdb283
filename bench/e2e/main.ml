(* End-to-end benchmark of limpetmlir run/tissue invocations.

     main.exe run [--seed N] [--reps 5] [--out FILE]
         every workload: untraced reps round-robin, one traced rep each;
         prints every metric (unit, median, quartiles, n)
     main.exe measure --workload W --seed N --seconds S --trace 0|1
         one workload for S seconds; the last stdout line is the result
         object {correct, attempted, failed, metrics}
     main.exe compare A.json B.json
         verdict per workload x end-to-end metric; exit 1 on a regression
     main.exe regen-reference
         recompute the committed tissue references on interp
     main.exe child --workload W --variant V [--smoke] [--trace FILE]
         one invocation (spawned by run/measure)

   Paths are relative to the repository root: references are read from
   bench/e2e/reference, scratch and Chrome traces go to bench/e2e/_work. *)

open E2e

let refs = "bench/e2e/reference"
let work = "bench/e2e/_work"

let usage () =
  prerr_endline
    "usage: main.exe (run|measure|compare|regen-reference|child) [options]; \
     see the header of bench/e2e/main.ml";
  exit 2

(* --key value options and bare --flags; anything else is positional *)
let parse (args : string list) : (string * string) list * string list =
  let flags = [ "--smoke" ] in
  let rec go opts pos = function
    | f :: rest when List.mem f flags -> go ((f, "") :: opts) pos rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: opts) pos rest
    | k :: _ when String.starts_with ~prefix:"--" k ->
        Printf.eprintf "option %s needs a value\n" k;
        exit 2
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let int_opt opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          Printf.eprintf "%s: not an integer: %s\n" k v;
          exit 2)

let workload opts ~smoke =
  match List.assoc_opt "--workload" opts with
  | None -> usage ()
  | Some name -> (
      match Workload.find ~smoke name with
      | Some w -> w
      | None ->
          Printf.eprintf "unknown workload %s\n" name;
          exit 2)

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
      let opts, pos = parse args in
      match (cmd, pos) with
      | "child", [] -> (
          let w = workload opts ~smoke:(List.mem_assoc "--smoke" opts) in
          match
            Child.run w
              ~variant:(int_opt opts "--variant" ~default:0)
              ~trace:(List.assoc_opt "--trace" opts)
          with
          | r -> print_endline (Obs.Json.to_string (Child.to_json r))
          | exception e ->
              Printf.eprintf "%s: %s\n" w.Workload.name (Printexc.to_string e);
              exit 1)
      | "run", [] ->
          let seed = int_opt opts "--seed" ~default:0 in
          let reps = int_opt opts "--reps" ~default:5 in
          let sessions =
            Bench.run ~exe:Sys.executable_name ~work ~refs ~smoke:false ~seed ~reps
          in
          Bench.print_report sessions;
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc
                    (Obs.Json.to_string (Bench.to_json ~seed ~reps sessions));
                  output_char oc '\n'))
            (List.assoc_opt "--out" opts)
      | "measure", [] ->
          let w = workload opts ~smoke:false in
          Bench.measure ~exe:Sys.executable_name ~work ~refs w
            ~seed:(int_opt opts "--seed" ~default:0)
            ~seconds:(float_of_int (int_opt opts "--seconds" ~default:10))
            ~trace:(int_opt opts "--trace" ~default:0 <> 0)
      | "compare", [ a; b ] ->
          let rows = Compare.rows ~a:(Compare.load a) ~b:(Compare.load b) in
          Compare.print rows;
          if List.exists (fun r -> r.Compare.verdict = Compare.Regressed) rows
          then exit 1
      | "regen-reference", [] -> Bench.regen_references ~refs
      | _ -> usage ())
  | _ -> usage ()
