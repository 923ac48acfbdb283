(* Observability tests: tracer semantics (disabled no-op, balancing,
   counters), the minimal JSON parser, Chrome-trace export round-trips,
   the traced-vs-untraced bitwise differential over the whole model
   catalogue, the disabled-path overhead guard and allocation-free
   enabled recording. *)

module T = Obs.Tracer
module E = Obs.Export
module J = Obs.Json
module C = Codegen.Config

(* Every test starts from a clean, disabled tracer; other suites in this
   binary never enable it, so cross-test interference is impossible. *)
let fresh () =
  T.disable ();
  T.reset ()

(* -- tracer ---------------------------------------------------------- *)

let test_disabled_records_nothing () =
  fresh ();
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  T.span_begin "a";
  T.with_span "b" (fun () -> T.count "c" 1.0);
  T.span_end "a";
  let s = T.snapshot () in
  Alcotest.(check int) "no events" 0 (List.length s.T.events);
  Alcotest.(check int) "no counters" 0 (List.length s.T.counters)

let test_spans_and_counters () =
  fresh ();
  T.enable ();
  T.with_span "outer" (fun () ->
      T.with_span "inner" (fun () -> T.count "n" 2.0);
      T.count "n" 3.0);
  T.disable ();
  let s = T.snapshot () in
  Alcotest.(check int) "two B/E pairs" 4 (List.length s.T.events);
  Alcotest.(check (list (pair string (float 1e-9))))
    "counter summed"
    [ ("n", 5.0) ]
    s.T.counters;
  (* with_span is exception-safe: the End is recorded on raise *)
  T.enable ();
  (match T.with_span "raises" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  T.disable ();
  let stats = E.summarize (T.snapshot ()) in
  Alcotest.(check bool) "raised span still closed" true
    (List.exists (fun ss -> ss.E.ss_name = "raises") stats)

let test_snapshot_balances () =
  fresh ();
  T.enable ();
  T.span_end "orphan end";
  T.span_begin "left open";
  T.with_span "complete" (fun () -> ());
  T.disable ();
  let s = T.snapshot () in
  (* the orphan End is dropped, the open Begin gets a synthetic End *)
  let begins =
    List.length (List.filter (fun e -> e.T.ev_kind = T.Begin) s.T.events)
  and ends =
    List.length (List.filter (fun e -> e.T.ev_kind = T.End) s.T.events)
  in
  Alcotest.(check int) "balanced" begins ends;
  Alcotest.(check int) "two spans" 2 begins;
  match E.validate_chrome (E.chrome s) with
  | Ok n -> Alcotest.(check int) "chrome validates" 4 n
  | Error e -> Alcotest.failf "chrome invalid: %s" e

let test_monotonic_timestamps () =
  fresh ();
  T.enable ();
  for _ = 1 to 500 do
    T.with_span "tick" (fun () -> ())
  done;
  T.disable ();
  let s = T.snapshot () in
  let rec mono = function
    | a :: (b :: _ as rest) ->
        if a.T.ev_ts > b.T.ev_ts then
          Alcotest.failf "timestamps went backwards: %g then %g" a.T.ev_ts
            b.T.ev_ts
        else mono rest
    | _ -> ()
  in
  mono s.T.events

let test_ring_overwrite_counts_dropped () =
  (* force a tiny logical load on the default ring: the ring only
     overwrites once more events than the capacity arrive, so spin well
     past it and check the drop accounting plus a still-valid export *)
  fresh ();
  T.enable ();
  for _ = 1 to 40_000 do
    T.with_span "spin" (fun () -> ())
  done;
  T.disable ();
  let s = T.snapshot () in
  Alcotest.(check bool) "snapshot nonempty" true (s.T.events <> []);
  Alcotest.(check bool) "overwritten events accounted as dropped" true
    (s.T.dropped > 0);
  match E.validate_chrome (E.chrome s) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome invalid after heavy load: %s" e

(* -- JSON ------------------------------------------------------------ *)

let test_json_parse () =
  let ok text =
    match J.parse text with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" text e
  in
  (match ok {|{"a": [1, -2.5e2, true, null, "x\n\"yA"]}|} with
  | J.Obj [ ("a", J.Arr [ J.Num a; J.Num b; J.Bool true; J.Null; J.Str s ]) ]
    when a = 1.0 && b = -250.0 ->
      Alcotest.(check string) "string escapes" "x\n\"yA" s
  | _ -> Alcotest.fail "unexpected parse shape");
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "01x"; "{} trailing" ]

let json_roundtrip =
  (* printer -> parser round-trip over random JSON trees *)
  let leaf =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return J.Null;
        QCheck.Gen.map (fun b -> J.Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun f -> J.Num f) (QCheck.Gen.float_range (-1e6) 1e6);
        QCheck.Gen.map (fun s -> J.Str s)
          (QCheck.Gen.string_size ~gen:QCheck.Gen.printable
             (QCheck.Gen.int_range 0 8));
      ]
  in
  let tree =
    QCheck.Gen.fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          QCheck.Gen.frequency
            [
              (3, leaf);
              ( 1,
                QCheck.Gen.map (fun xs -> J.Arr xs)
                  (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
                     (self (depth - 1))) );
              ( 1,
                QCheck.Gen.map (fun kvs -> J.Obj kvs)
                  (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
                     (QCheck.Gen.pair
                        (QCheck.Gen.string_size ~gen:QCheck.Gen.printable
                           (QCheck.Gen.int_range 0 6))
                        (self (depth - 1)))) );
            ])
      2
  in
  Helpers.qtest ~count:300 "json print/parse round-trip"
    (QCheck.make tree) (fun v ->
      match J.parse (J.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
      | Ok v' -> v = v')

let chrome_roundtrip =
  (* arbitrary span/counter names (quotes, backslashes, control chars)
     recorded through the tracer must export to a parseable, balanced
     Chrome trace *)
  let arb =
    QCheck.(
      list_of_size (Gen.int_range 0 25)
        (pair printable_string (float_range 0.0 10.0)))
  in
  Helpers.qtest ~count:100 "chrome trace round-trip" arb (fun pairs ->
      fresh ();
      T.enable ();
      List.iter
        (fun (name, x) ->
          T.with_span ("s:" ^ name) (fun () -> T.count ("c:" ^ name) x))
        pairs;
      T.disable ();
      let text = E.chrome (T.snapshot ()) in
      match (J.parse text, E.validate_chrome text) with
      | Error e, _ -> QCheck.Test.fail_reportf "not JSON: %s" e
      | _, Error e -> QCheck.Test.fail_reportf "invalid trace: %s" e
      | Ok _, Ok n -> n = 2 * List.length pairs)

(* -- Prometheus exposition -------------------------------------------- *)

let test_prometheus_validator () =
  let ok text =
    match E.validate_prometheus text with
    | Ok n -> n
    | Error e -> Alcotest.failf "rejected valid exposition: %s" e
  in
  let bad ~why text =
    match E.validate_prometheus text with
    | Ok _ -> Alcotest.failf "accepted exposition with %s" why
    | Error _ -> ()
  in
  Alcotest.(check int) "empty exposition" 0 (ok "");
  Alcotest.(check int) "minimal family" 1
    (ok "# HELP m_up Up.\n# TYPE m_up gauge\nm_up 1\n");
  Alcotest.(check int) "labels, escapes, nonfinite, timestamp" 3
    (ok
       ("# HELP m_x X.\n# TYPE m_x counter\n"
      ^ "m_x{a=\"q\\\"uo\\\\te\\n\"} 1.5e3\nm_x{a=\"b\"} +Inf\n"
      ^ "m_x{a=\"c\"} NaN 1700000000\n"));
  bad ~why:"no trailing newline" "# HELP m_up Up.\n# TYPE m_up gauge\nm_up 1";
  bad ~why:"TYPE without HELP" "# TYPE m_up gauge\nm_up 1\n";
  bad ~why:"duplicate TYPE"
    "# HELP m Up.\n# TYPE m gauge\n# TYPE m gauge\nm 1\n";
  bad ~why:"bad metric name" "# HELP 1m Up.\n# TYPE 1m gauge\n1m 1\n";
  bad ~why:"bad metric type" "# HELP m Up.\n# TYPE m gouge\nm 1\n";
  bad ~why:"illegal escape" "m{a=\"\\t\"} 1\n";
  bad ~why:"unterminated label value" "m{a=\"x} 1\n";
  bad ~why:"lowercase nonfinite (the %g spelling)" "m inf\n";
  bad ~why:"lowercase nan" "m nan\n";
  bad ~why:"hex float" "m 0x1p3\n";
  bad ~why:"bad timestamp" "m 1 soon\n";
  bad ~why:"interleaved families"
    ("# HELP a A.\n# TYPE a gauge\na 1\n"
   ^ "# HELP b B.\n# TYPE b gauge\nb 1\na 2\n")

let test_prometheus_nonfinite_values () =
  (* regression: %g would render nan/inf in lowercase, which the
     exposition format (and validate_prometheus) rejects *)
  fresh ();
  T.enable ();
  T.count "worst_residual" Float.nan;
  T.count "hard_ceiling" Float.infinity;
  T.count "steps" 42.0;
  T.disable ();
  let text = E.prometheus (T.snapshot ()) in
  Alcotest.(check bool) "NaN spelled canonically" true
    (Helpers.contains text "NaN");
  Alcotest.(check bool) "+Inf spelled canonically" true
    (Helpers.contains text "+Inf");
  match E.validate_prometheus text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "nonfinite values broke the exposition: %s" e

let prometheus_roundtrip =
  (* arbitrary span/counter names (quotes, backslashes, newlines)
     recorded through the tracer must export to an exposition the
     validator accepts, with one sample per span stat and counter *)
  let arb =
    QCheck.(
      list_of_size (Gen.int_range 0 25)
        (pair printable_string (float_range 0.0 10.0)))
  in
  Helpers.qtest ~count:100 "prometheus exposition round-trip" arb (fun pairs ->
      fresh ();
      T.enable ();
      List.iter
        (fun (name, x) ->
          T.with_span ("s:" ^ name) (fun () -> T.count ("c:" ^ name) x))
        pairs;
      T.disable ();
      let snap = T.snapshot () in
      let text = E.prometheus snap in
      match E.validate_prometheus text with
      | Error e -> QCheck.Test.fail_reportf "invalid exposition: %s" e
      | Ok n ->
          (* span total + span count per distinct span name, one sample
             per distinct counter name *)
          let spans = List.length (E.summarize snap) in
          n = (2 * spans) + List.length snap.T.counters)

let test_prometheus_health_section () =
  (* the health metric families render from a live monitor and validate *)
  fresh ();
  let h =
    Obs.Health.create ~model:"model \"x\"\\v1" ~layout:Obs.Health.Cell_major
      ~nvars:1 ~ncells_pad:2
      ~vars:[ { Obs.Health.v_name = "g{a}"; v_slot = 0; v_gate = true } ]
      ~warn:(fun _ -> ())
      ()
  in
  let sv = Float.Array.make 2 0.5 in
  Float.Array.set sv 1 Float.nan;
  Obs.Health.sample_chunk h ~sv ~vm:None ~lo:0 ~hi:2 ~step:0;
  Obs.Health.note_sampled h;
  let text = E.prometheus ~health:(Obs.Health.snapshot h) (T.snapshot ()) in
  (match E.validate_prometheus text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "health exposition invalid: %s" e);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Helpers.contains text needle))
    [
      "limpetmlir_health_steps_sampled"; "limpetmlir_health_nan_total";
      "limpetmlir_health_state"; "limpetmlir_health_unhealthy";
      "stat=\"mean\"";
    ]

(* -- traced runs are bitwise identical ------------------------------- *)

let test_traced_bitwise_identical () =
  (* the paper-repro guarantee extended to observability: tracing a run
     never changes a single bit of its results, on any model, for both
     optimized engines *)
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let m = Models.Registry.model e in
      let g = Codegen.Cache.generate (C.mlir ~width:4) m in
      List.iter
        (fun (ename, engine) ->
          let d = Sim.Driver.create ~engine g ~ncells:4 ~dt:0.01 in
          let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.05 ~duration:0.1 () in
          let steps = 20 in
          fresh ();
          for _ = 1 to steps do
            Sim.Driver.step ~stim d
          done;
          let plain = Sim.Driver.snapshot d 1 in
          Sim.Driver.reset d;
          T.reset ();
          T.enable ();
          for _ = 1 to steps do
            Sim.Driver.step ~stim d
          done;
          T.disable ();
          let traced = Sim.Driver.snapshot d 1 in
          let s = T.snapshot () in
          if s.T.events = [] then
            Alcotest.failf "%s/%s: traced run recorded no events" e.name ename;
          (match E.validate_chrome (E.chrome s) with
          | Ok _ -> ()
          | Error err ->
              Alcotest.failf "%s/%s: invalid chrome trace: %s" e.name ename err);
          List.iter2
            (fun (n, a) (_, b) ->
              if not (Helpers.same_float a b) then
                Alcotest.failf "%s/%s: tracing changed %s: %.17g vs %.17g"
                  e.name ename n a b)
            plain traced)
        [ ("batched", Sim.Driver.Batched) ])
    Models.Registry.all;
  fresh ()

(* -- disabled-path overhead ------------------------------------------ *)

let test_disabled_overhead () =
  (* a disabled tracer must cost one flag load per call: a million
     span+counter calls complete far inside any human-visible budget and
     record nothing.  (The CI native-vs-batched geomean gate guards the
     real hot path end to end.) *)
  fresh ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1_000_000 do
    T.with_span "hot" (fun () -> T.count "hot" 1.0)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let s = T.snapshot () in
  Alcotest.(check int) "nothing recorded" 0 (List.length s.T.events);
  Alcotest.(check int) "no counters" 0 (List.length s.T.counters);
  if dt > 2.0 then
    Alcotest.failf "1M disabled calls took %.2f s (expected well under 2 s)" dt

(* Enabled recording allocates nothing either: a minor collection that
   starts inside a span's End call is charged between the span's End
   stamp and the caller's own clock. *)
let test_enabled_recording_allocates_nothing () =
  fresh ();
  T.enable ();
  (* the ring exists before measuring *)
  T.span_begin "warm";
  T.span_end "warm";
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.span_begin "hot";
    T.span_end "hot"
  done;
  let words = Gc.minor_words () -. w0 in
  T.disable ();
  if words > 64.0 then
    Alcotest.failf "20000 recorded events allocated %.0f minor words" words

(* -- ring-buffer tail (crash-dump path) ------------------------------- *)

(* the tail contract: at most [limit] events, globally sorted by
   timestamp, and per domain both balanced (well-nested B/E) and
   timestamp-monotonic *)
let check_tail_invariants (evs : T.event list) ~(limit : int) : unit =
  if List.length evs > limit then
    Alcotest.failf "tail returned %d events, limit %d" (List.length evs) limit;
  let rec sorted = function
    | (a : T.event) :: (b :: _ as rest) ->
        if a.T.ev_ts > b.T.ev_ts then
          Alcotest.failf "global order broken: %.3f after %.3f" b.T.ev_ts
            a.T.ev_ts;
        sorted rest
    | _ -> ()
  in
  sorted evs;
  let doms = List.sort_uniq compare (List.map (fun e -> e.T.ev_dom) evs) in
  List.iter
    (fun dom ->
      let mine = List.filter (fun e -> e.T.ev_dom = dom) evs in
      let depth =
        List.fold_left
          (fun d (e : T.event) ->
            let d = match e.T.ev_kind with T.Begin -> d + 1 | T.End -> d - 1 in
            if d < 0 then Alcotest.failf "dom %d: unmatched End" dom;
            d)
          0 mine
      in
      if depth <> 0 then Alcotest.failf "dom %d: %d unclosed Begin(s)" dom depth;
      ignore
        (List.fold_left
           (fun prev (e : T.event) ->
             if e.T.ev_ts < prev then
               Alcotest.failf "dom %d: timestamps not monotonic" dom;
             e.T.ev_ts)
           0.0 mine))
    doms

let tail_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"tail invariants hold for random span counts and limits"
       QCheck.(pair (int_range 0 200) (int_range 1 64))
       (fun (nspans, limit) ->
         fresh ();
         T.enable ();
         for i = 1 to nspans do
           T.with_span (Printf.sprintf "s%d" (i mod 7)) (fun () -> ())
         done;
         let t = T.tail ~limit () in
         T.disable ();
         check_tail_invariants t ~limit;
         (* with room to spare, the most recent spans are all present *)
         if 2 * nspans <= limit && List.length t <> 2 * nspans then
           QCheck.Test.fail_reportf "expected %d events, got %d" (2 * nspans)
             (List.length t);
         true))

let test_tail_concurrent_writers () =
  (* the crash-dump path reads the tail while other domains are still
     recording; every observed tail must satisfy the invariants *)
  fresh ();
  T.enable ();
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun w ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              T.with_span (Printf.sprintf "w%d-%d" w (!i mod 5)) (fun () -> ())
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join writers;
      T.disable ())
    (fun () ->
      for _ = 1 to 200 do
        check_tail_invariants (T.tail ~limit:128 ()) ~limit:128
      done);
  (* writers quiesced: the tail really holds recent events *)
  let t = T.tail ~limit:64 () in
  check_tail_invariants t ~limit:64;
  Alcotest.(check bool) "tail nonempty after recording" true (t <> [])

(* Timestamps are microseconds: a span around a sleep lasts at least the
   sleep, and within 10 us of what the caller's own clock saw around the
   call (the span's stamps lie inside it, a few hundred nanoseconds from
   its ends).  A tick-to-microsecond scale off by 0.05 % fails one bound
   or the other on the 40 ms sleep. *)
let test_span_durations_in_microseconds () =
  fresh ();
  T.enable ();
  let sleeps_ms = [ 5; 20; 40 ] in
  let outside_us =
    List.map
      (fun ms ->
        let a = Unix.gettimeofday () in
        T.with_span "sleep" (fun () -> Unix.sleepf (float_of_int ms *. 1e-3));
        (Unix.gettimeofday () -. a) *. 1e6)
      sleeps_ms
  in
  T.disable ();
  let rec spans open_ts acc = function
    | [] -> List.rev acc
    | (e : T.event) :: rest -> (
        match e.T.ev_kind with
        | T.Begin -> spans e.T.ev_ts acc rest
        | T.End -> spans open_ts ((e.T.ev_ts -. open_ts) :: acc) rest)
  in
  let durs = spans 0.0 [] (T.snapshot ()).T.events in
  Alcotest.(check int) "one span per sleep" 3 (List.length durs);
  List.iteri
    (fun i dur ->
      let slept = float_of_int (List.nth sleeps_ms i) *. 1e3
      and outside = List.nth outside_us i in
      (* gettimeofday truncates to whole microseconds: 1 us per read *)
      if dur < Float.max slept (outside -. 10.0) || dur > outside +. 2.0 then
        Alcotest.failf
          "span %.1f us around a %.0f us sleep timed %.1f us outside" dur
          slept outside)
    durs

let suite =
  [
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "spans and counters" `Quick test_spans_and_counters;
    Alcotest.test_case "snapshot balances open spans" `Quick
      test_snapshot_balances;
    Alcotest.test_case "timestamps monotonic" `Quick test_monotonic_timestamps;
    Alcotest.test_case "ring overwrite stays valid" `Quick
      test_ring_overwrite_counts_dropped;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    json_roundtrip;
    chrome_roundtrip;
    Alcotest.test_case "prometheus validator" `Quick test_prometheus_validator;
    Alcotest.test_case "prometheus nonfinite values" `Quick
      test_prometheus_nonfinite_values;
    prometheus_roundtrip;
    Alcotest.test_case "prometheus health section" `Quick
      test_prometheus_health_section;
    Alcotest.test_case "traced runs bitwise identical (43 models)" `Quick
      test_traced_bitwise_identical;
    Alcotest.test_case "disabled tracing overhead" `Quick test_disabled_overhead;
    Alcotest.test_case "enabled recording allocates nothing" `Quick
      test_enabled_recording_allocates_nothing;
    tail_qcheck;
    Alcotest.test_case "tail under concurrent writers" `Quick
      test_tail_concurrent_writers;
    Alcotest.test_case "span durations in microseconds" `Quick
      test_span_durations_in_microseconds;
  ]
