(** Stimulus protocols over {!Sim.Stim.spatial} pulses. *)

module Stim = Sim.Stim

type t = { name : string; stims : Stim.spatial list }

let current (p : t) ~(t : float) ~(cell : int) : float =
  match p.stims with
  | [ s ] -> Stim.at_cell s ~t ~cell
  | stims ->
      List.fold_left (fun acc s -> acc +. Stim.at_cell s ~t ~cell) 0.0 stims

(* every pulse's [Stim.at] value at one time, shared by all cells, and
   room for every cell's current *)
type pulses = {
  spatial : Stim.spatial array;
  values : floatarray;
  currents : floatarray;
}

let pulses (p : t) ~(n : int) : pulses =
  let spatial = Array.of_list p.stims in
  {
    spatial;
    values = Float.Array.make (Array.length spatial) 0.0;
    currents = Float.Array.make n 0.0;
  }

let eval (e : pulses) ~(t : float) : bool =
  let on = ref false in
  for k = 0 to Array.length e.spatial - 1 do
    let a = Stim.at e.spatial.(k).Stim.pulse t in
    Float.Array.set e.values k a;
    if a <> 0.0 then on := true
  done;
  !on

(* [current]'s sum, term for term, over the evaluated pulses: each
   cell's sum starts from 0.0 and adds the pulses in order *)
let currents (e : pulses) : floatarray =
  (match e.spatial with
  | [| s |] ->
      Stim.mask_into ~add:false s (Float.Array.get e.values 0) e.currents
  | spatial ->
      Float.Array.fill e.currents 0 (Float.Array.length e.currents) 0.0;
      for k = 0 to Array.length spatial - 1 do
        Stim.mask_into ~add:true spatial.(k) (Float.Array.get e.values k)
          e.currents
      done);
  e.currents

(* weight 1 on the strip x < width, 0 elsewhere *)
let strip_mask (g : Geometry.t) ~(width : int) : floatarray =
  let n = Geometry.cells g in
  let w = Float.Array.make n 0.0 in
  for cell = 0 to n - 1 do
    let x, _ = Geometry.coords g cell in
    if x < width then Float.Array.set w cell 1.0
  done;
  w

(* weight 1 on the lower-left quadrant of a sheet (cross-field S2);
   on a cable, the S1 strip itself (premature beat at the same site) *)
let s2_mask (g : Geometry.t) ~(width : int) : floatarray =
  match g with
  | Geometry.Cable _ -> strip_mask g ~width
  | Geometry.Sheet { nx; ny; _ } ->
      let w = Float.Array.make (nx * ny) 0.0 in
      for y = 0 to (ny / 2) - 1 do
        for x = 0 to (nx / 2) - 1 do
          Float.Array.set w ((y * nx) + x) 1.0
        done
      done;
      w

let s1 ?(amplitude = 80.0) ?(start = 1.0) ?(duration = 2.0) ?(width = 5)
    (g : Geometry.t) : t =
  let pulse = Stim.make ~amplitude ~start ~duration () in
  {
    name = "s1";
    stims = [ Stim.weighted pulse (strip_mask g ~width) ];
  }

let s1s2 ?(amplitude = 80.0) ?(start = 1.0) ?(duration = 2.0) ?(width = 5)
    ~(s2_start : float) (g : Geometry.t) : t =
  let p1 = Stim.make ~amplitude ~start ~duration () in
  let p2 = Stim.make ~amplitude ~start:s2_start ~duration () in
  {
    name = "s1s2";
    stims =
      [
        Stim.weighted p1 (strip_mask g ~width);
        Stim.weighted p2 (s2_mask g ~width);
      ];
  }

let restitution ?(amplitude = 80.0) ?(start = 1.0) ?(duration = 2.0)
    ?(width = 5) ~(n_s1 : int) ~(interval : float) ~(s2_coupling : float)
    (g : Geometry.t) : t =
  if n_s1 < 1 then invalid_arg "Protocol.restitution: need n_s1 >= 1";
  if interval <= 0.0 then
    invalid_arg "Protocol.restitution: interval must be positive";
  let mask = strip_mask g ~width in
  let train =
    List.init n_s1 (fun k ->
        let pulse =
          Stim.make ~amplitude
            ~start:(start +. (float_of_int k *. interval))
            ~duration ()
        in
        Stim.weighted pulse mask)
  in
  let s2 =
    Stim.weighted
      (Stim.make ~amplitude
         ~start:(start +. (float_of_int (n_s1 - 1) *. interval) +. s2_coupling)
         ~duration ())
      mask
  in
  { name = "restitution"; stims = train @ [ s2 ] }
