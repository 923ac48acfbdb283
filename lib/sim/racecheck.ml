(** Static race checker for the Domain-parallel compute stage.

    {!Driver.compute_stage} splits the padded cell range into
    width-aligned chunks and runs the same kernel concurrently on each.
    That is only sound if the chunks' {e write} footprints on shared
    buffers are pairwise disjoint (and no chunk writes what another
    reads).  This module proves it: the kernel's footprint summary
    ({!Analysis.Footprint}) is instantiated once per chunk with that
    chunk's concrete [start]/[stop], accesses on per-thread scratch
    (LUT row buffers) are discarded, and every pair of chunks is checked
    for an overlap between one side's writes and the other side's
    accesses on the same shared buffer.  Congruence intervals make this
    exact for the AoSoA address polynomial — chunk footprints on the
    state buffer tile it without slack, so the checker passes on a
    correct partition and fails loudly on e.g. a misaligned one. *)

module K = Codegen.Kernel
module I = Analysis.Itv.I
module Fp = Analysis.Footprint

type conflict = {
  chunk_a : int * int;  (** [start, stop) cell ranges *)
  chunk_b : int * int;
  origin : Analysis.Interval.origin;
  write_itv : I.t;  (** chunk A's write interval on [origin] *)
  other_itv : I.t;  (** chunk B's overlapping access *)
  other_is_write : bool;
}

let pp_conflict ppf (c : conflict) =
  let b0, e0 = c.chunk_a and b1, e1 = c.chunk_b in
  Fmt.pf ppf
    "chunk [%d,%d) writes %a[%a] which overlaps chunk [%d,%d)'s %s of [%a]"
    b0 e0 Analysis.Interval.pp_origin c.origin I.pp c.write_itv b1 e1
    (if c.other_is_write then "write" else "read")
    I.pp c.other_itv

(* Footprint of one chunk on shared buffers only, grouped by origin. *)
let chunk_footprint (gen : K.t) (f : Ir.Func.func)
    (infos : Kernel_facts.param_info array) ~(ncells_pad : int)
    ((b, e) : int * int) : (Analysis.Interval.origin * Fp.access list) list =
  let seed = Kernel_facts.compute_seeds gen ~ncells_pad ~range:(b, e) f in
  let _, accs = Fp.of_func ~seed f in
  accs
  |> List.filter (fun (a : Fp.access) ->
         match a.Fp.acc_origin with
         | Analysis.Interval.Oparam i -> Kernel_facts.shared infos i
         | Analysis.Interval.Oalloc _ ->
             (* local allocs live inside one kernel invocation; each
                chunk runs its own compiled instance *)
             false
         | Analysis.Interval.Ounknown -> true)
  |> Fp.by_origin

(* A write of A conflicts with any overlapping access of B on the same
   origin.  Unknown origins conservatively match every origin. *)
let conflicts_between ((ca, fa) : (int * int) * _) ((cb, fb) : (int * int) * _)
    : conflict list =
  List.concat_map
    (fun ((oa, aa) : Analysis.Interval.origin * Fp.access list) ->
      let wa = Fp.writes aa in
      if wa = [] then []
      else
        List.concat_map
          (fun ((ob, ab) : Analysis.Interval.origin * Fp.access list) ->
            let related =
              Analysis.Interval.origin_equal oa ob
              || oa = Analysis.Interval.Ounknown
              || ob = Analysis.Interval.Ounknown
            in
            if not related then []
            else
              List.concat_map
                (fun (w : Fp.access) ->
                  List.filter_map
                    (fun (x : Fp.access) ->
                      if I.overlap w.Fp.acc_itv x.Fp.acc_itv then
                        Some
                          {
                            chunk_a = ca;
                            chunk_b = cb;
                            origin = oa;
                            write_itv = w.Fp.acc_itv;
                            other_itv = x.Fp.acc_itv;
                            other_is_write = x.Fp.acc_write;
                          }
                      else None)
                    ab)
                wa)
          fb)
    fa

(** Check an explicit partition of [\[0, ncells_pad)] into cell ranges.
    [Ok n] reports the number of chunk pairs checked; [Error cs] lists
    every conflicting pair found (non-empty). *)
let check_partition (gen : K.t) ~(ncells_pad : int)
    (chunks : (int * int) list) : (int, conflict list) result =
  match Kernel_facts.compute_func gen with
  | None -> Ok 0
  | Some f ->
      let infos = Kernel_facts.param_infos gen in
      let fps =
        List.map
          (fun c -> (c, chunk_footprint gen f infos ~ncells_pad c))
          (List.filter (fun (b, e) -> e > b) chunks)
      in
      let conflicts = ref [] in
      let pairs = ref 0 in
      let rec go = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                incr pairs;
                conflicts :=
                  !conflicts @ conflicts_between a b @ conflicts_between b a)
              rest;
            go rest
      in
      go fps;
      if !conflicts = [] then Ok !pairs else Error !conflicts

(** Check the exact partition {!Driver.compute_stage} uses for
    [nthreads] domains: width-aligned blocks split by
    {!Runtime.Parallel.chunks}. *)
let check (gen : K.t) ~(ncells : int) ~(nthreads : int) :
    (int, conflict list) result =
  let w = gen.K.cfg.Codegen.Config.width in
  let ncells_pad = (ncells + w - 1) / w * w in
  let nblocks = ncells_pad / w in
  let chunks =
    Runtime.Parallel.chunks ~nthreads ~lo:0 ~hi:nblocks
    |> List.map (fun (blo, bhi) -> (blo * w, bhi * w))
  in
  check_partition gen ~ncells_pad chunks

(** Check the partition the {e batched} engine's compute stage uses for
    [nthreads] domains: chunk boundaries fall on whole tiles of
    [tile × width] cells (the last tile may be clamped to
    [ncells_pad]).  [tile = 1] degenerates to {!check}. *)
let check_tiles (gen : K.t) ~(ncells : int) ~(nthreads : int) ~(tile : int)
    : (int, conflict list) result =
  let w = gen.K.cfg.Codegen.Config.width in
  let ncells_pad = (ncells + w - 1) / w * w in
  let t = max 1 tile in
  let uw = t * w in
  let nunits = (ncells_pad + uw - 1) / uw in
  let chunks =
    Runtime.Parallel.chunks ~nthreads ~lo:0 ~hi:nunits
    |> List.map (fun (ulo, uhi) -> (ulo * uw, min (uhi * uw) ncells_pad))
  in
  check_partition gen ~ncells_pad chunks

let errors_to_string (cs : conflict list) : string =
  Fmt.str "@[<v>%a@]" (Fmt.list pp_conflict) cs
