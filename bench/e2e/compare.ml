(** [compare A.json B.json]: two [run --out] results, workload by
    workload, on every end-to-end metric.  A is the base. *)

type verdict = Improved | No_worse | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(** The verdict on B's samples against A's for one metric.

    - The slack is the metric's bound as a share of A's median, or its
      absolute floor when that is larger.
    - {e unresolved}: the spread (A's interquartile range: the base's
      run-to-run noise) is wider than the slack, unless every B sample
      beats every A sample.
    - {e regressed}: B's median is worse than A's by more than the slack.
    - {e improved}: B beats A in at least nine tenths of all sample
      pairs, and the medians differ by more than A's spread.
    - {e no worse}: otherwise.

    A zero bound (failure rates) turns any worsening of the mean into a
    regression. *)
let verdict (d : Metrics.def) ~(a : float list) ~(b : float list) : verdict =
  (* how much worse [y] is than [x] (negative: better) *)
  let worse x y = match d.Metrics.better with Metrics.Lower -> y -. x | Metrics.Higher -> x -. y in
  if d.Metrics.bound = 0.0 then
    let delta = worse (Perf.Stats.mean a) (Perf.Stats.mean b) in
    if delta > 0.0 then Regressed else if delta < 0.0 then Improved else No_worse
  else
    let ma = Perf.Stats.median a and mb = Perf.Stats.median b in
    let delta = worse ma mb in
    let slack = Float.max (d.Metrics.bound *. Float.abs ma) d.Metrics.floor in
    let spread = Perf.Stats.iqr a in
    let pairs = List.concat_map (fun x -> List.map (fun y -> worse x y) b) a in
    let wins = List.length (List.filter (fun p -> p < 0.0) pairs) in
    let win_share = float_of_int wins /. float_of_int (List.length pairs) in
    if spread > slack && win_share < 1.0 then Unresolved
    else if delta > slack then Regressed
    else if win_share >= 0.9 && -.delta > spread then Improved
    else No_worse

type row = {
  workload : string;
  metric : Metrics.def;
  a : float list;
  b : float list;
  verdict : verdict;
}

(* workload name -> metric name -> samples *)
let load (path : string) : (string * (string * float list) list) list =
  let open Obs.Json in
  let j = parse_exn (In_channel.with_open_text path In_channel.input_all) in
  let list k v = Option.value ~default:[] (Option.bind (member k v) to_list) in
  let str k v = Option.bind (member k v) to_str in
  List.filter_map
    (fun w ->
      Option.map
        (fun name ->
          ( name,
            List.filter_map
              (fun m ->
                Option.map
                  (fun k -> (k, List.filter_map to_float (list "samples" m)))
                  (str "name" m))
              (list "metrics" w) ))
        (str "name" w))
    (list "workloads" j)

(** Rows for every workload in both results and every end-to-end metric
    both sides measured. *)
let rows ~(a : (string * (string * float list) list) list)
    ~(b : (string * (string * float list) list) list) : row list =
  List.concat_map
    (fun (workload, ma) ->
      match List.assoc_opt workload b with
      | None -> []
      | Some mb ->
          List.filter_map
            (fun (d : Metrics.def) ->
              match (List.assoc_opt d.Metrics.name ma, List.assoc_opt d.Metrics.name mb) with
              | Some (_ :: _ as a), Some (_ :: _ as b) ->
                  Some { workload; metric = d; a; b; verdict = verdict d ~a ~b }
              | _ -> None)
            Metrics.end_to_end)
    a

let print (rows : row list) : unit =
  let q xs = Printf.sprintf "%.5g [%.5g, %.5g]" (Perf.Stats.median xs)
      (Perf.Stats.quantile xs 0.25) (Perf.Stats.quantile xs 0.75) in
  Printf.printf "%-18s %-17s %-6s %-32s %-32s %-12s %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "B/A" "verdict";
  List.iter
    (fun r ->
      let ma = Perf.Stats.median r.a in
      let ratio =
        if ma = 0.0 then "-" else Printf.sprintf "%.4f" (Perf.Stats.median r.b /. ma)
      in
      Printf.printf "%-18s %-17s %-6s %-32s %-32s %-12s %s\n" r.workload
        r.metric.Metrics.name r.metric.Metrics.unit_ (q r.a) (q r.b) ratio
        (verdict_name r.verdict))
    rows
