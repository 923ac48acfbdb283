(** The benchmark's workloads: what one [limpetmlir run] or
    [limpetmlir tissue] invocation computes, with the CLI defaults those
    commands use, at full and at smoke scale. *)

type shape =
  | Cells of { cells : int; steps : int }  (** [limpetmlir run] *)
  | Tissue of { nx : int; ny : int; steps : int; checkpoints : bool }
      (** [limpetmlir tissue]; [ny = 1] is a cable, [checkpoints] adds
          [--checkpoint-dir] at the default stride/keep *)

type t = {
  name : string;
  model : string;  (** registry name *)
  shape : shape;
  engine : Sim.Driver.engine;
  invocations : int;  (** per rep, one after another, sharing a cache root *)
}

(* Why each workload is here, and which layers it should move: README.md,
   "Workloads". *)
let full : t list =
  [
    {
      name = "cell-large-native";
      model = "TenTusscher";
      shape = Cells { cells = 8192; steps = 2000 };
      engine = Sim.Driver.Native;
      invocations = 1;
    };
    {
      name = "cell-rerun-native";
      model = "LuoRudy91";
      shape = Cells { cells = 8192; steps = 200 };
      engine = Sim.Driver.Native;
      invocations = 8;
    };
    {
      name = "cable-ckpt-native";
      model = "MitchellSchaeffer";
      shape = Tissue { nx = 2048; ny = 1; steps = 70_000; checkpoints = true };
      engine = Sim.Driver.Native;
      invocations = 1;
    };
    {
      name = "sheet-cg-batched";
      model = "MitchellSchaeffer";
      shape = Tissue { nx = 64; ny = 64; steps = 3000; checkpoints = false };
      engine = Sim.Driver.Batched;
      invocations = 1;
    };
  ]

(* Same shapes and engines on MitchellSchaeffer, a fraction of a second
   each: the accounting and CLI-parity tests run these. *)
let smoke : t list =
  let shrink (w : t) shape invocations =
    { w with model = "MitchellSchaeffer"; shape; invocations }
  in
  match full with
  | [ large; rerun; cable; sheet ] ->
      [
        shrink large (Cells { cells = 64; steps = 200 }) 1;
        shrink rerun (Cells { cells = 64; steps = 50 }) 2;
        shrink cable
          (Tissue { nx = 64; ny = 1; steps = 2000; checkpoints = true })
          1;
        shrink sheet
          (Tissue { nx = 8; ny = 8; steps = 300; checkpoints = false })
          1;
      ]
  | _ -> assert false

let find ~smoke:s (name : string) : t option =
  List.find_opt (fun w -> w.name = name) (if s then smoke else full)

(** The seed picks the time step: variant 0 is the CLI default
    [--dt 0.01]; the others perturb it by 1%, which changes every
    trajectory and checkpoint but none of the work done. *)
let dts = [| 0.01; 0.0099; 0.0101 |]

let variant ~(seed : int) : int =
  let k = Array.length dts in
  ((seed mod k) + k) mod k

let dt ~(variant : int) : float = dts.(variant)

(** [limpetmlir]'s default code-generation config ([-w 8]: AoSoA8 with
    lookup tables). *)
let config : Codegen.Config.t = Codegen.Config.mlir ~width:8

let ncells (w : t) : int =
  match w.shape with Cells c -> c.cells | Tissue t -> t.nx * t.ny

let steps (w : t) : int =
  match w.shape with Cells c -> c.steps | Tissue t -> t.steps

(** Padded population, computed as {!Sim.Driver.create} does. *)
let ncells_pad (w : t) : int =
  let v = config.Codegen.Config.width in
  (ncells w + v - 1) / v * v

(* [limpetmlir tissue] defaults *)
let dx = 0.01
let sigma = 0.001
let stim_width = 5
let ckpt_stride = 1000
let ckpt_keep = 3

let geometry ~nx ~ny : Tissue.Geometry.t =
  if ny <= 1 then Tissue.Geometry.cable ~n:nx ~dx
  else Tissue.Geometry.sheet ~nx ~ny ~dx

let protocol (g : Tissue.Geometry.t) : Tissue.Protocol.t =
  Tissue.Protocol.s1 ~width:stim_width g

let tissue_config : Tissue.Monodomain.config =
  {
    Tissue.Monodomain.default_config with
    Tissue.Monodomain.sigma;
    splitting = Tissue.Monodomain.Godunov;
    block_check_ms = None;
  }

(** The [limpetmlir] command line one invocation of [w] stands for
    ([ckpt_dir] receives the checkpoints of a checkpointing workload). *)
let cli_args (w : t) ~(variant : int) ~(ckpt_dir : string) : string list =
  let common =
    [ "--engine"; Sim.Driver.engine_name w.engine; "--dt"; Printf.sprintf "%h" (dt ~variant);
      "--final-digest" ]
  in
  match w.shape with
  | Cells c ->
      [ "run"; w.model; "--cells"; string_of_int c.cells; "--steps";
        string_of_int c.steps; "--trace-every"; "0" ]
      @ common
  | Tissue t ->
      [ "tissue"; w.model; "--nx"; string_of_int t.nx; "--ny"; string_of_int t.ny;
        "--steps"; string_of_int t.steps ]
      @ common
      @ if t.checkpoints then [ "--checkpoint-dir"; ckpt_dir ] else []

(** The model's name and EasyML source text, as bundled in the
    registry. *)
let source (w : t) : string * string =
  let e = Models.Registry.find_exn w.model in
  (e.Models.Model_def.name, e.Models.Model_def.source)
