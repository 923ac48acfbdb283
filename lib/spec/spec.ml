(** One typed description of a simulation run: what [limpetmlir run],
    [tissue], [serve] and [profile] build from their flags, what every
    checkpoint and run manifest records, and what [limpetmlir replay]
    rebuilds a run from.  The metadata encoding is the checkpoint
    format's: decimal integers, [true]/[false], and floats as
    {!Obs.Recorder.hex_of_float} bit patterns, so every field
    round-trips exactly. *)

module Monodomain = Tissue.Monodomain

type codegen = {
  width : int;  (** 1 (scalar baseline), 2, 4 or 8 *)
  layout : Runtime.Layout.t option;  (** [None]: the width's default *)
  no_lut : bool;
  autovec : bool;  (** icc-style auto-vectorization cost profile *)
  spline : bool;  (** cubic lookup-table interpolation *)
}

type protocol =
  | S1
  | S1s2 of { s2_start : float }
  | Restitution of { n_s1 : int; interval : float; s2_coupling : float }
  | S1_paced  (** [serve --tissue]: the S1 site stimulated every 1000 ms *)

type tissue = {
  nx : int; ny : int;  (** [ny = 1]: a cable *)
  dx : float; sigma : float; splitting : Monodomain.splitting;
  block_check : float;  (** conduction-block check time, ms; 0 = off *)
  stim_width : int; protocol : protocol;
}

type shape = Cells of int | Tissue of tissue

type t = {
  model : string;  (** registry name or EasyML file path *)
  codegen : codegen; engine : Sim.Driver.engine;
  dt : float; steps : int;  (** total steps of the run *)
  threads : int; shape : shape;
}

let config (c : codegen) : Codegen.Config.t =
  let base =
    if c.autovec then Codegen.Config.autovec ~width:c.width
    else if c.width = 1 then Codegen.Config.baseline
    else Codegen.Config.mlir ~width:c.width
  in
  { base with layout = Option.value c.layout ~default:base.Codegen.Config.layout;
    use_lut = not c.no_lut; lut_spline = c.spline }

(** Every splitting under its CLI spelling. *)
let splittings = [ ("godunov", Monodomain.Godunov); ("strang", Monodomain.Strang) ]

(* -- metadata --------------------------------------------------------- *)

let hex = Obs.Recorder.hex_of_float

(** The spec as checkpoint metadata, in checkpoint key order: a run's
    {!Obs.Recorder.writer} [extra], and the manifest's [spec].  [kind],
    [engine], [dt_bits] and (cells) [ncells] are also written by
    {!Sim.Driver.capture}; a writer keeps the capture's values, so
    checkpoints record the engine that actually ran. *)
let to_meta (s : t) : (string * string) list =
  let c = s.codegen and engine = Sim.Driver.engine_name s.engine in
  [
    ("kind", match s.shape with Cells _ -> "cell" | Tissue _ -> "tissue");
    ("model_ref", s.model);
    ("steps_total", string_of_int s.steps);
    ("threads", string_of_int s.threads);
    ("cli_width", string_of_int c.width);
    ("cli_layout", Option.fold ~none:"" ~some:Runtime.Layout.name c.layout);
    ("cli_no_lut", string_of_bool c.no_lut);
    ("cli_autovec", string_of_bool c.autovec);
    ("cli_spline", string_of_bool c.spline);
    ("engine_req", engine);
    ("engine", engine);
    ("dt_bits", hex s.dt);
  ]
  @
  match s.shape with
  | Cells n -> [ ("ncells", string_of_int n) ]
  | Tissue t ->
      (* every tissue checkpoint carries every protocol parameter; those
         its protocol does not use hold the tissue command's defaults *)
      let s2_start = match t.protocol with S1s2 p -> p.s2_start | _ -> 340.0 in
      let n_s1, interval, s2_coupling =
        match t.protocol with
        | Restitution p -> (p.n_s1, p.interval, p.s2_coupling)
        | _ -> (4, 400.0, 300.0)
      in
      [
        ("nx", string_of_int t.nx);
        ("ny", string_of_int t.ny);
        ("dx_bits", hex t.dx);
        ("sigma_bits", hex t.sigma);
        ("splitting", fst (List.find (fun (_, x) -> x = t.splitting) splittings));
        ( "protocol",
          match t.protocol with
          | S1 -> "s1" | S1s2 _ -> "s1s2" | Restitution _ -> "restitution"
          | S1_paced -> "s1-paced" );
        ("stim_width", string_of_int t.stim_width);
        ("s2_start_bits", hex s2_start);
        ("s1_count", string_of_int n_s1);
        ("s1_interval_bits", hex interval);
        ("s2_coupling_bits", hex s2_coupling);
        ("block_check_bits", hex t.block_check);
      ]

(* -- what the create functions accept ----------------------------------- *)

(** A field of a spec outside what {!create} accepts: its checkpoint
    metadata key, its CLI flag (without the dashes), the requirement and
    the value. *)
type out_of_range = { key : string; flag : string; need : string; got : string }

(** [Some] unless [n] is one of {!Codegen.Config.widths}: the check of
    every [-w] flag and of a checkpoint's [cli_width]. *)
let width_out_of_range (n : int) : out_of_range option =
  if List.mem n Codegen.Config.widths then None
  else
    let need =
      "one of " ^ String.concat ", " (List.map string_of_int Codegen.Config.widths)
    in
    Some { key = "cli_width"; flag = "width"; need; got = string_of_int n }

(** The most threads a run may ask for: one domain each, and OCaml 5.1
    runs at most 128 domains at once ([Max_domains]). *)
let max_threads = 128

(** The first field of [s] that {!create} would refuse.  These bounds
    are written only here: flag-built specs and checkpoint metadata
    ({!of_checkpoint}) are both held to them. *)
let out_of_range (s : t) : out_of_range option =
  let bounded ?hi lo key flag n =
    if n >= lo && Option.fold ~none:true ~some:(fun hi -> n <= hi) hi then None
    else
      let need =
        match hi with
        | None -> Printf.sprintf "at least %d" lo
        | Some hi -> Printf.sprintf "between %d and %d" lo hi
      in
      Some { key; flag; need; got = string_of_int n }
  in
  let at_least = bounded ?hi:None in
  (* NaN and ±inf are refused too: a non-finite step, spacing or
     conductivity runs to a meaningless answer, never to an error *)
  let float_check ok need key flag x =
    if Float.is_finite x && ok x then None
    else Some { key; flag; need; got = Printf.sprintf "%g" x }
  in
  let positive = float_check (fun x -> x > 0.0) "positive and finite" in
  let non_negative = float_check (fun x -> x >= 0.0) "finite and at least 0" in
  let shape =
    match s.shape with
    | Cells n -> [ at_least 1 "ncells" "cells" n ]
    | Tissue t ->
        [ at_least 2 "nx" "nx" t.nx; at_least 1 "ny" "ny" t.ny;
          positive "dx_bits" "dx" t.dx; non_negative "sigma_bits" "sigma" t.sigma;
          at_least 0 "stim_width" "stim-width" t.stim_width ]
        @ (match t.protocol with
          | Restitution p ->
              [ at_least 1 "s1_count" "s1-count" p.n_s1;
                positive "s1_interval_bits" "s1-interval" p.interval ]
          | S1 | S1s2 _ | S1_paced -> [])
  in
  List.find_map Fun.id
    ([ at_least 0 "steps_total" "steps" s.steps;
       bounded ~hi:max_threads 1 "threads" "threads" s.threads;
       width_out_of_range s.codegen.width; positive "dt_bits" "dt" s.dt ]
    @ shape)

(* The population [s] describes, padded to the kernel width, if it is
   at most [cap] cells; a larger one is refused before it is multiplied
   out. *)
let padded_population (s : t) ~(cap : int) : int option =
  let w = (config s.codegen).Codegen.Config.width in
  let n =
    match s.shape with
    | Cells n -> n
    | Tissue t -> if t.ny > cap / t.nx then max_int else t.nx * t.ny
  in
  let np = if n > cap then max_int else (n + w - 1) / w * w in
  if np <= cap then Some np else None

(* Engine spellings of earlier releases: [fused] is the old name of
   [batched], and the retired [closure] engine's checkpoints replay on
   [batched] too (the engines agree bit for bit). *)
let legacy_engines = [ ("fused", Sim.Driver.Batched); ("closure", Sim.Driver.Batched) ]

(** Inverse of {!to_meta}.  Every key is required; a missing or
    malformed value, one {!out_of_range}, a missing [sv] section, or a
    population larger than the [sv] section or other than the one each
    [ext:] section holds, is a [checkpoint-mismatch] diagnostic.  The
    [sv] section holds [nvars >= 1] values per padded cell, so it bounds
    the population even of a model with no external variables.
    Metadata lies outside the checkpoint digest, so the population is
    checked here, before anything is allocated for it. *)
let of_checkpoint (ck : Obs.Recorder.checkpoint) : (t, Easyml.Diag.t) result =
  let ( let* ) = Result.bind in
  let mismatch fmt =
    Fmt.kstr (fun m ->
        Error (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code:"checkpoint-mismatch" m))
      fmt
  in
  let malformed key v = mismatch "checkpoint has malformed %s=%S" key v in
  let field key parse =
    match Obs.Recorder.meta ck key with
    | None -> mismatch "checkpoint missing required metadata key %s" key
    | Some v -> ( match parse v with Some x -> Ok x | None -> malformed key v)
  in
  let int key = field key int_of_string_opt in
  let float key = field key Obs.Recorder.float_of_hex in
  let bool key = field key bool_of_string_opt in
  let among table key = field key (fun v -> List.assoc_opt v table) in
  let* model = field "model_ref" (fun v -> if v = "" then None else Some v) in
  let* steps = int "steps_total" in
  let* threads = int "threads" in
  let* width = int "cli_width" in
  let* layout =
    field "cli_layout" (fun v ->
        if v = "" then Some None else Option.map Option.some (Runtime.Layout.of_string v))
  in
  let* no_lut = bool "cli_no_lut" in
  let* autovec = bool "cli_autovec" in
  let* spline = bool "cli_spline" in
  (* [engine_req] is the engine asked for, [engine] the one that ran
     (native falls back to batched without a C toolchain): a replay
     rebuilds the latter *)
  let engines = Sim.Driver.engines @ legacy_engines in
  let* _ = among engines "engine_req" in
  let* engine = among engines "engine" in
  (* checkpoints of earlier releases also carry [specialized] and
     [tile]; any value of either replays *)
  let* dt = float "dt_bits" in
  let* shape =
    match Obs.Recorder.meta ck "kind" with
    | Some "cell" ->
        let* n = int "ncells" in
        Ok (Cells n)
    | Some "tissue" ->
        let* nx = int "nx" in
        let* ny = int "ny" in
        let* dx = float "dx_bits" in
        let* sigma = float "sigma_bits" in
        let* splitting = among splittings "splitting" in
        let* stim_width = int "stim_width" in
        let* s2_start = float "s2_start_bits" in
        let* n_s1 = int "s1_count" in
        let* interval = float "s1_interval_bits" in
        let* s2_coupling = float "s2_coupling_bits" in
        let* block_check = float "block_check_bits" in
        let* protocol =
          among
            [ ("s1", S1); ("s1s2", S1s2 { s2_start });
              ("restitution", Restitution { n_s1; interval; s2_coupling });
              ("s1-paced", S1_paced) ]
            "protocol"
        in
        Ok (Tissue { nx; ny; dx; sigma; splitting; block_check; stim_width; protocol })
    | _ -> among [] "kind"
  in
  let s =
    { model; codegen = { width; layout; no_lut; autovec; spline }; engine;
      dt; steps; threads; shape }
  in
  match out_of_range s with
  | Some r ->
      (* every bounded key was read above *)
      malformed r.key (Option.get (Obs.Recorder.meta ck r.key))
  | None -> (
      let length (sec : Obs.Recorder.section) = Float.Array.length sec.sec_data in
      let find p = List.find_opt p ck.Obs.Recorder.ck_sections in
      let* sv =
        match find (fun sec -> sec.sec_name = "sv") with
        | None -> mismatch "checkpoint missing section sv"
        | Some sv -> Ok sv
      in
      let* np =
        match padded_population s ~cap:(length sv) with
        | None ->
            mismatch "checkpoint metadata describes more cells than its \
                      section sv holds (%d value(s))"
              (length sv)
        | Some np -> Ok np
      in
      match
        find (fun sec ->
            String.starts_with ~prefix:"ext:" sec.sec_name && length sec <> np)
      with
      | None -> Ok s
      | Some sec ->
          mismatch "checkpoint metadata describes another population than \
                    its section %s (%d value(s))"
            sec.sec_name (length sec))

(* -- the run ------------------------------------------------------------ *)

type sim = Cell_sim of Sim.Driver.t | Tissue_sim of Monodomain.t

let protocol (t : tissue) (geom : Tissue.Geometry.t) : Tissue.Protocol.t =
  let width = t.stim_width in
  match t.protocol with
  | S1 -> Tissue.Protocol.s1 ~width geom
  | S1s2 { s2_start } -> Tissue.Protocol.s1s2 ~width ~s2_start geom
  | Restitution { n_s1; interval; s2_coupling } ->
      Tissue.Protocol.restitution ~width ~n_s1 ~interval ~s2_coupling geom
  | S1_paced ->
      let n = Tissue.Geometry.cells geom in
      let pulse =
        Sim.Stim.make ~amplitude:80.0 ~start:1.0 ~duration:2.0 ~period:1000.0 ()
      in
      { Tissue.Protocol.name = "s1-paced";
        stims = [ Sim.Stim.region pulse ~n ~lo:0 ~hi:(min width n) ] }

(** {!Sim.Driver.create} or {!Tissue.Monodomain.create} on the spec's
    engine, [dt] and shape.
    @raise Sim.Driver.Driver_error or [Invalid_argument] as those do. *)
let create (s : t) (g : Codegen.Kernel.t) : sim =
  let engine = s.engine in
  match s.shape with
  | Cells ncells -> Cell_sim (Sim.Driver.create ~engine g ~ncells ~dt:s.dt)
  | Tissue t ->
      let geom =
        if t.ny <= 1 then Tissue.Geometry.cable ~n:t.nx ~dx:t.dx
        else Tissue.Geometry.sheet ~nx:t.nx ~ny:t.ny ~dx:t.dx
      in
      let config =
        { Monodomain.default_config with Monodomain.sigma = t.sigma;
          splitting = t.splitting;
          block_check_ms =
            (if t.block_check > 0.0 then Some t.block_check else None) }
      in
      Tissue_sim
        (Monodomain.create ~engine ~config ~nthreads:s.threads g
           ~geom ~dt:s.dt ~protocol:(protocol t geom))

let driver = function Cell_sim d -> d | Tissue_sim m -> Monodomain.driver m

(** One step: {!Sim.Driver.step} with the default stimulus on the
    spec's thread count, or {!Tissue.Monodomain.step}. *)
let step (s : t) = function
  | Cell_sim d -> Sim.Driver.step ~nthreads:s.threads ~stim:Sim.Stim.default d
  | Tissue_sim m -> Monodomain.step m

let capture = function
  | Cell_sim d -> Sim.Driver.capture d
  | Tissue_sim m -> Monodomain.capture m

let restore (sim : sim) (ck : Obs.Recorder.checkpoint) =
  match sim with
  | Cell_sim d -> Sim.Driver.restore d ck
  | Tissue_sim m -> Monodomain.restore m ck
