(** The answer oracle.  Every invocation's final state is checked against
    the [interp] reference engine, never against the engine under test:
    bitwise for the OCaml engines, within 2 ULP for [native] (its
    documented bound).

    Cell workloads are uncoupled, identically stimulated populations, so
    their reference is an 8-cell [interp] run computed on the spot; the
    sampled cells of the real population must all equal its cell 0.
    Full-scale tissue references take a minute on [interp] and are
    committed under [reference/] by [main.exe regen-reference]. *)

type tissue = {
  digest : string;
  activated : int;
  reactivated : int;
  cv : float option;
  vm : float array;  (** final membrane potential of every node *)
}

type answer =
  | Cells of { digest : string; sampled : (int * (string * float) list) list }
      (** snapshots (every state and assigned external) of cells
          0, n/2 and n-1 *)
  | Tissue of tissue

type reference = Cell_ref of (string * float) list | Tissue_ref of tissue

let digest = function Cells c -> c.digest | Tissue t -> t.digest

(* -- exact float encoding --------------------------------------------- *)

let hex (v : float) : string = Printf.sprintf "%016Lx" (Int64.bits_of_float v)

let of_hex (s : string) : float =
  if String.length s <> 16 then failwith ("bad float bits: " ^ s);
  Int64.float_of_bits (Int64.of_string ("0x" ^ s))

(** Distance in units in the last place: the number of representable
    doubles between [a] and [b] (0 iff the bit patterns are equal, or
    both are zeros). *)
let ulp_distance (a : float) (b : float) : int64 =
  let ord x =
    let i = Int64.bits_of_float x in
    if Int64.compare i 0L < 0 then Int64.sub Int64.min_int i else i
  in
  Int64.abs (Int64.sub (ord a) (ord b))

let ulp_tolerance : Sim.Driver.engine -> int64 = function
  | Sim.Driver.Native -> 2L
  | Sim.Driver.Fused | Sim.Driver.Batched | Sim.Driver.Compiled
  | Sim.Driver.Reference ->
      0L

(* -- what an invocation answers --------------------------------------- *)

let cell_answer (d : Sim.Driver.t) ~(digest : string) : answer =
  let n = d.Sim.Driver.ncells in
  let cells = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  Cells
    { digest; sampled = List.map (fun c -> (c, Sim.Driver.snapshot d c)) cells }

let tissue_answer (sim : Tissue.Monodomain.t) ~(digest : string) : answer =
  let act = Tissue.Monodomain.activation sim in
  let d = Tissue.Monodomain.driver sim in
  let n = Tissue.Geometry.cells (Tissue.Monodomain.geometry sim) in
  Tissue
    {
      digest;
      activated = Tissue.Activation.activated act;
      reactivated = Tissue.Activation.reactivated act;
      cv = Tissue.Monodomain.conduction_velocity sim;
      vm = Array.init n (Sim.Driver.vm d);
    }

let answer_to_json (a : answer) : Obs.Json.t =
  let open Obs.Json in
  let vals l = Arr (List.map (fun (k, v) -> Arr [ Str k; Str (hex v) ]) l) in
  match a with
  | Cells c ->
      Obj
        [
          ("digest", Str c.digest);
          ( "sampled",
            Arr
              (List.map
                 (fun (cell, l) ->
                   Obj [ ("cell", Num (float_of_int cell)); ("values", vals l) ])
                 c.sampled) );
        ]
  | Tissue t ->
      Obj
        [
          ("digest", Str t.digest);
          ("activated", Num (float_of_int t.activated));
          ("reactivated", Num (float_of_int t.reactivated));
          ("cv", match t.cv with Some v -> Str (hex v) | None -> Null);
          ("vm", Arr (Array.to_list (Array.map (fun v -> Str (hex v)) t.vm)));
        ]

let answer_of_json (j : Obs.Json.t) : answer =
  let open Obs.Json in
  let get k =
    match member k j with Some v -> v | None -> failwith ("answer lacks " ^ k)
  in
  let str = function Str s -> s | _ -> failwith "answer: expected a string" in
  let int v = int_of_float (Option.get (to_float v)) in
  let arr v = Option.value ~default:[] (to_list v) in
  let digest = str (get "digest") in
  match member "sampled" j with
  | Some s ->
      let values l =
        List.map
          (function
            | Arr [ Str k; Str v ] -> (k, of_hex v)
            | _ -> failwith "answer: bad value pair")
          (arr l)
      in
      Cells
        {
          digest;
          sampled =
            List.map
              (fun c ->
                match (member "cell" c, member "values" c) with
                | Some n, Some l -> (int n, values l)
                | _ -> failwith "answer: bad sampled cell")
              (arr s);
        }
  | None ->
      Tissue
        {
          digest;
          activated = int (get "activated");
          reactivated = int (get "reactivated");
          cv = (match get "cv" with Null -> None | v -> Some (of_hex (str v)));
          vm = Array.of_list (List.map (fun v -> of_hex (str v)) (arr (get "vm")));
        }

(* -- references on the interp engine ---------------------------------- *)

let interp_kernel (w : Workload.t) : Codegen.Kernel.t =
  let name, src = Workload.source w in
  Codegen.Cache.generate Workload.config (Easyml.Sema.analyze_source ~name src)

(** Cell 0 of an 8-cell [interp] population driven exactly like the
    benchmark's: compute stage, membrane update under the default S1
    stimulus, clock tick. *)
let cell_reference (w : Workload.t) ~(dt : float) : reference =
  let d =
    Sim.Driver.create ~engine:Sim.Driver.Reference (interp_kernel w) ~ncells:8
      ~dt
  in
  for _ = 1 to Workload.steps w do
    Sim.Driver.compute_stage d;
    Sim.Driver.membrane_update ~stim:Sim.Stim.default d;
    Sim.Driver.tick d
  done;
  Cell_ref (Sim.Driver.snapshot d 0)

let tissue_reference (w : Workload.t) ~(dt : float) : tissue =
  match w.Workload.shape with
  | Workload.Cells _ -> invalid_arg "tissue_reference: a cell workload"
  | Workload.Tissue t ->
      let geom = Workload.geometry ~nx:t.nx ~ny:t.ny in
      let sim =
        Tissue.Monodomain.create ~engine:Sim.Driver.Reference
          ~config:Workload.tissue_config (interp_kernel w) ~geom ~dt
          ~protocol:(Workload.protocol geom)
      in
      ignore (Tissue.Monodomain.run sim ~steps:t.steps);
      let digest = Obs.Recorder.digest (Tissue.Monodomain.capture sim) in
      (match tissue_answer sim ~digest with
      | Tissue r -> r
      | Cells _ -> assert false)

(* -- committed tissue references -------------------------------------- *)

let magic = "limpetmlir-e2e-reference v1"

let reference_file ~(dir : string) (w : Workload.t) ~(variant : int) : string =
  Filename.concat dir (Printf.sprintf "%s-v%d.ref" w.Workload.name variant)

(* the header pins what the reference was computed for, so a changed
   workload can never be checked against a stale file *)
let header (w : Workload.t) ~(dt : float) : string list =
  [
    magic;
    "workload " ^ w.Workload.name;
    "model " ^ w.Workload.model;
    "nodes " ^ string_of_int (Workload.ncells w);
    "steps " ^ string_of_int (Workload.steps w);
    "dt_bits " ^ hex dt;
  ]

let write_reference (path : string) (w : Workload.t) ~(dt : float)
    (r : tissue) : unit =
  let lines =
    header w ~dt
    @ [
        "digest " ^ r.digest;
        "activated " ^ string_of_int r.activated;
        "reactivated " ^ string_of_int r.reactivated;
        "cv_bits " ^ (match r.cv with Some v -> hex v | None -> "none");
        "vm " ^ string_of_int (Array.length r.vm);
      ]
    @ Array.to_list (Array.map hex r.vm)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let read_reference (path : string) (w : Workload.t) ~(dt : float) :
    (tissue, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let lines = String.split_on_char '\n' (String.trim text) in
      let hdr = header w ~dt in
      let nh = List.length hdr in
      if List.filteri (fun i _ -> i < nh) lines <> hdr then
        Error (path ^ ": header does not match this workload (regenerate)")
      else
        let rest = List.filteri (fun i _ -> i >= nh) lines in
        let field k l =
          match String.index_opt l ' ' with
          | Some i when String.sub l 0 i = k ->
              String.sub l (i + 1) (String.length l - i - 1)
          | _ -> failwith (Printf.sprintf "%s: expected %s" path k)
        in
        try
          match rest with
          | dg :: act :: react :: cv :: vm :: values ->
              let n = int_of_string (field "vm" vm) in
              if List.length values <> n then failwith (path ^ ": truncated");
              Ok
                {
                  digest = field "digest" dg;
                  activated = int_of_string (field "activated" act);
                  reactivated = int_of_string (field "reactivated" react);
                  cv =
                    (match field "cv_bits" cv with
                    | "none" -> None
                    | h -> Some (of_hex h));
                  vm = Array.of_list (List.map of_hex values);
                }
          | _ -> Error (path ^ ": truncated")
        with Failure m -> Error m)

(** The reference for one workload and seed variant: computed on the
    spot for cell workloads and for smoke-scale tissue, read from
    [dir] for full-scale tissue. *)
let reference ~(smoke : bool) ~(dir : string) (w : Workload.t)
    ~(variant : int) : (reference, string) result =
  let dt = Workload.dt ~variant in
  match w.Workload.shape with
  | Workload.Cells _ -> Ok (cell_reference w ~dt)
  | Workload.Tissue _ when smoke -> Ok (Tissue_ref (tissue_reference w ~dt))
  | Workload.Tissue _ ->
      Result.map
        (fun t -> Tissue_ref t)
        (read_reference (reference_file ~dir w ~variant) w ~dt)

(* -- the check -------------------------------------------------------- *)

let check ~(engine : Sim.Driver.engine) (r : reference) (a : answer) :
    (unit, string) result =
  let tol = ulp_tolerance engine in
  let close what x y =
    let u = ulp_distance x y in
    if Int64.compare u tol <= 0 then Ok ()
    else
      Error
        (Printf.sprintf "%s: %s vs reference %s (%Ld ULP > %Ld)" what (hex x)
           (hex y) u tol)
  in
  let rec all = function
    | [] -> Ok ()
    | Ok () :: rest -> all rest
    | (Error _ as e) :: _ -> e
  in
  match (r, a) with
  | Cell_ref expect, Cells c ->
      all
        (List.concat_map
           (fun (cell, got) ->
             if List.map fst got <> List.map fst expect then
               [ Error (Printf.sprintf "cell %d: variable set differs" cell) ]
             else
               List.map2
                 (fun (k, x) (_, y) -> close (Printf.sprintf "cell %d %s" cell k) x y)
                 got expect)
           c.sampled)
  | Tissue_ref e, Tissue t ->
      let count what x y =
        if x = y then Ok ()
        else Error (Printf.sprintf "%s: %d vs reference %d" what x y)
      in
      let cv =
        match (t.cv, e.cv) with
        | None, None -> Ok ()
        | Some x, Some y when Float.abs (x -. y) <= 1e-9 *. Float.abs y -> Ok ()
        | _ -> Error "conduction velocity differs from the reference"
      in
      if Array.length t.vm <> Array.length e.vm then Error "node count differs"
      else
        all
          ([
             count "activated" t.activated e.activated;
             count "reactivated" t.reactivated e.reactivated;
             cv;
           ]
          @ Array.to_list
              (Array.mapi
                 (fun i x -> close (Printf.sprintf "node %d Vm" i) x e.vm.(i))
                 t.vm))
  | _ -> Error "answer kind does not match the workload"
