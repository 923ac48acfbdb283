(** Model registry: the 43-model evaluation suite.

    Mirrors the paper's split: 8 small, 22 medium, 13 large (§4.1).
    Analysis results are memoized — the frontend runs once per model. *)

open Model_def

let all : entry list =
  Small_models.entries @ Medium_models.entries @ Large_models.entries

let find (name : string) : entry option =
  List.find_opt (fun e -> String.equal e.name name) all

let find_exn (name : string) : entry =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Registry.find_exn: unknown model " ^ name)

let by_class (c : cls) : entry list = List.filter (fun e -> e.cls = c) all
let names () : string list = List.map (fun e -> e.name) all

let memo : (string, Easyml.Model.t) Hashtbl.t = Hashtbl.create 64

(** Parse + analyze a model (memoized). *)
let model (e : entry) : Easyml.Model.t =
  match Hashtbl.find_opt memo e.name with
  | Some m -> m
  | None ->
      let m = Easyml.Sema.analyze_source ~name:e.name e.source in
      Hashtbl.replace memo e.name m;
      m

let class_counts () : (cls * int) list =
  List.map (fun c -> (c, List.length (by_class c))) [ Small; Medium; Large ]
