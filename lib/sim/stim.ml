(** Stimulus protocols.

    openCARP's [bench] applies a transmembrane current pulse to elicit
    action potentials; we reproduce the same shape: a rectangular pulse of
    given amplitude, start, duration, and optional period (S1 pacing). *)

type t = {
  amplitude : float;  (** current amplitude (model units, e.g. uA/cm^2) *)
  start : float;  (** ms *)
  duration : float;  (** ms *)
  period : float option;  (** repeat every [period] ms when set *)
}

let none = { amplitude = 0.0; start = 0.0; duration = 0.0; period = None }

let default =
  { amplitude = 60.0; start = 1.0; duration = 2.0; period = Some 1000.0 }

let make ?(amplitude = 60.0) ?(start = 1.0) ?(duration = 2.0) ?period () =
  { amplitude; start; duration; period }

(** Stimulus current at time [t] (ms). *)
let at (s : t) (t : float) : float =
  if s.amplitude = 0.0 then 0.0
  else
    let phase =
      match s.period with
      | Some p when p > 0.0 && t >= s.start ->
          s.start +. Float.rem (t -. s.start) p
      | _ -> t
    in
    if phase >= s.start && phase < s.start +. s.duration then s.amplitude
    else 0.0

(* ------------------------------------------------------------------ *)
(* Spatial addressing                                                  *)
(* ------------------------------------------------------------------ *)

(** Per-cell amplitude scaling for tissue-scale protocols.  [Uniform]
    applies the pulse to every cell unscaled — {!at_cell} returns exactly
    what {!at} returns, bit for bit, so single-cell callers can be lifted
    to the spatial form without perturbing any trajectory.  [Weights]
    scales the pulse per cell (0 outside the stimulated region). *)
type mask = Uniform | Weights of floatarray

type spatial = { pulse : t; mask : mask }

let uniform (s : t) : spatial = { pulse = s; mask = Uniform }

let weighted (s : t) (w : floatarray) : spatial = { pulse = s; mask = Weights w }

(** Rectangular region on a linearized population: weight 1 on cells
    [lo, hi), 0 elsewhere. *)
let region (s : t) ~(n : int) ~(lo : int) ~(hi : int) : spatial =
  if lo < 0 || hi > n || lo > hi then
    invalid_arg "Stim.region: need 0 <= lo <= hi <= n";
  let w = Float.Array.make n 0.0 in
  for c = lo to hi - 1 do
    Float.Array.set w c 1.0
  done;
  { pulse = s; mask = Weights w }

(** One cell's share of the pulse value [a] (an {!at} result). *)
let apply_mask (s : spatial) (a : float) ~(cell : int) : float =
  match s.mask with
  | Uniform -> a
  | Weights w -> if a = 0.0 then 0.0 else a *. Float.Array.get w cell

(* [apply_mask] for every cell, written out per mask so that no share
   is boxed: a float returned from a call that is not inlined is. *)
let mask_into ~(add : bool) (s : spatial) (a : float) (dst : floatarray) :
    unit =
  let n = Float.Array.length dst in
  match s.mask with
  | Uniform ->
      for i = 0 to n - 1 do
        Float.Array.set dst i (if add then Float.Array.get dst i +. a else a)
      done
  | Weights w ->
      for i = 0 to n - 1 do
        let share = if a = 0.0 then 0.0 else a *. Float.Array.get w i in
        Float.Array.set dst i
          (if add then Float.Array.get dst i +. share else share)
      done

(** Stimulus current for one cell at time [t].  With a [Uniform] mask
    this is {e bitwise} [at s.pulse t] — no scaling is applied at all. *)
let at_cell (s : spatial) ~(t : float) ~(cell : int) : float =
  apply_mask s (at s.pulse t) ~cell
