(* Health-monitor tests: streaming reducers against a straightforward
   oracle on NaN/Inf-salted arrays, watchdog trip semantics (policies,
   dedup, hard vs soft reasons), the monitored-vs-unmonitored bitwise
   differential over the whole model catalogue on both optimized
   engines, the disabled-path overhead guard, and the HTTP endpoint. *)

module H = Obs.Health
module C = Codegen.Config

let quiet = { H.default_config with H.stride = 1 }

(* -- streaming reducers == oracle ------------------------------------- *)

type oracle = {
  o_n : int;
  o_min : float;
  o_max : float;
  o_mean : float;
  o_nan : int;
  o_inf : int;
  o_range : int;
}

(* The straight-line reference: one pass, same observation order as the
   streaming reducer, so sums must agree bit for bit. *)
let oracle ~(gate : bool) (xs : float list) : oracle =
  let n = ref 0 and sum = ref 0.0 in
  let mn = ref Float.infinity and mx = ref Float.neg_infinity in
  let nan = ref 0 and inf = ref 0 and range = ref 0 in
  List.iter
    (fun x ->
      if Float.is_nan x then incr nan
      else if x = Float.infinity || x = Float.neg_infinity then incr inf
      else begin
        incr n;
        sum := !sum +. x;
        if x < !mn then mn := x;
        if x > !mx then mx := x;
        if gate && (x < 0.0 || x > 1.0) then incr range
      end)
    xs;
  {
    o_n = !n;
    o_min = (if !n = 0 then Float.nan else !mn);
    o_max = (if !n = 0 then Float.nan else !mx);
    o_mean = (if !n = 0 then Float.nan else !sum /. float_of_int !n);
    o_nan = !nan;
    o_inf = !inf;
    o_range = !range;
  }

let salted_float =
  QCheck.Gen.frequency
    [
      (5, QCheck.Gen.float_range (-2.0) 2.0);
      (2, QCheck.Gen.float_range (-500.0) 500.0);
      (1, QCheck.Gen.return Float.nan);
      (1, QCheck.Gen.return Float.infinity);
      (1, QCheck.Gen.return Float.neg_infinity);
    ]

let check_stat (vs : H.var_stat) (o : oracle) : bool =
  vs.H.vs_samples = o.o_n
  && Helpers.same_float vs.H.vs_min o.o_min
  && Helpers.same_float vs.H.vs_max o.o_max
  && Helpers.same_float vs.H.vs_mean o.o_mean
  && vs.H.vs_nan = o.o_nan && vs.H.vs_inf = o.o_inf
  && vs.H.vs_range = o.o_range

let reducer_oracle =
  (* two monitored variables (one gate) in a cell-major buffer, sampled
     in two chunks: merged statistics must equal the one-pass oracle *)
  let arb =
    QCheck.make
      ~print:(fun xs ->
        String.concat ";"
          (List.map (fun (a, b) -> Printf.sprintf "(%h,%h)" a b) xs))
      QCheck.Gen.(list_size (int_range 1 64) (pair salted_float salted_float))
  in
  Helpers.qtest ~count:300 "streaming reducers match oracle" arb (fun cells ->
      let n = List.length cells in
      let sv = Float.Array.create (2 * n) in
      List.iteri
        (fun c (a, g) ->
          Float.Array.set sv (2 * c) a;
          Float.Array.set sv ((2 * c) + 1) g)
        cells;
      let h =
        H.create ~cfg:quiet ~model:"oracle" ~layout:H.Cell_major ~nvars:2
          ~ncells_pad:n
          ~vars:
            [
              { H.v_name = "a"; v_slot = 0; v_gate = false };
              { H.v_name = "g"; v_slot = 1; v_gate = true };
            ]
          ~warn:(fun _ -> ())
          ()
      in
      let mid = n / 2 in
      H.sample_chunk h ~sv ~vm:None ~lo:0 ~hi:mid ~step:0;
      H.sample_chunk h ~sv ~vm:None ~lo:mid ~hi:n ~step:0;
      H.note_sampled h;
      let s = H.snapshot h in
      match s.H.hs_vars with
      | [ a_stat; g_stat; _vm ] ->
          check_stat a_stat (oracle ~gate:false (List.map fst cells))
          && check_stat g_stat (oracle ~gate:true (List.map snd cells))
          && s.H.hs_steps_sampled = 1
      | _ -> false)

let layout_oracle =
  (* the same salted values must reduce identically under all three
     layouts: only the indexing changes, never the observation *)
  let arb =
    QCheck.make
      ~print:(fun xs -> String.concat ";" (List.map (Printf.sprintf "%h") xs))
      QCheck.Gen.(list_size (int_range 4 40) salted_float)
  in
  Helpers.qtest ~count:100 "reducers agree across layouts" arb (fun xs ->
      let w = 4 in
      let n = (List.length xs + w - 1) / w * w in
      let xs = Array.of_list xs in
      let value c = if c < Array.length xs then xs.(c) else 0.0 in
      let nvars = 3 and slot = 1 in
      let index layout ~cell ~var =
        match layout with
        | H.Cell_major -> (cell * nvars) + var
        | H.Var_major -> (var * n) + cell
        | H.Blocked w -> (cell / w * nvars * w) + (var * w) + (cell mod w)
      in
      let stats =
        List.map
          (fun layout ->
            let sv = Float.Array.make (nvars * n) 0.0 in
            for c = 0 to n - 1 do
              Float.Array.set sv (index layout ~cell:c ~var:slot) (value c)
            done;
            let h =
              H.create ~cfg:quiet ~model:"layouts" ~layout ~nvars
                ~ncells_pad:n
                ~vars:[ { H.v_name = "x"; v_slot = slot; v_gate = false } ]
                ~warn:(fun _ -> ())
                ()
            in
            H.sample_chunk h ~sv ~vm:None ~lo:0 ~hi:n ~step:0;
            List.hd (H.snapshot h).H.hs_vars)
          [ H.Cell_major; H.Var_major; H.Blocked w ]
      in
      match stats with
      | [ a; b; c ] ->
          let eq (x : H.var_stat) (y : H.var_stat) =
            x.H.vs_samples = y.H.vs_samples
            && Helpers.same_float x.H.vs_min y.H.vs_min
            && Helpers.same_float x.H.vs_max y.H.vs_max
            && Helpers.same_float x.H.vs_mean y.H.vs_mean
            && x.H.vs_nan = y.H.vs_nan && x.H.vs_inf = y.H.vs_inf
          in
          eq a b && eq a c
      | _ -> false)

(* -- trip semantics ---------------------------------------------------- *)

let monitor ?(cfg = quiet) ?(warn = fun _ -> ()) ~gate () =
  H.create ~cfg ~model:"m" ~layout:H.Cell_major ~nvars:1 ~ncells_pad:4
    ~vars:[ { H.v_name = "x"; v_slot = 0; v_gate = gate } ]
    ~warn ()

let sample1 h v =
  let sv = Float.Array.make 4 0.0 in
  Float.Array.set sv 2 v;
  H.sample_chunk h ~sv ~vm:None ~lo:0 ~hi:4 ~step:7

let test_soft_and_hard_trips () =
  (* gate excursions trip but never mark the run unhealthy *)
  let h = monitor ~gate:true () in
  sample1 h 1.5;
  H.enforce h;
  Alcotest.(check bool) "gate trip recorded" true (H.tripped h);
  Alcotest.(check bool) "gate trip is soft" false (H.unhealthy h);
  (* NaN is hard *)
  let h = monitor ~gate:false () in
  sample1 h Float.nan;
  Alcotest.(check bool) "nan trips" true (H.tripped h);
  Alcotest.(check bool) "nan is hard" true (H.unhealthy h);
  (* membrane watchdog: out-of-window Vm is hard *)
  let h =
    H.create ~cfg:quiet ~model:"m" ~layout:H.Cell_major ~nvars:1 ~ncells_pad:2
      ~vars:[] ~warn:(fun _ -> ()) ()
  in
  let vm = Float.Array.make 2 0.0 in
  Float.Array.set vm 1 350.0;
  H.sample_chunk h ~sv:(Float.Array.make 2 0.0) ~vm:(Some vm) ~lo:0 ~hi:2
    ~step:3;
  Alcotest.(check bool) "vm watchdog is hard" true (H.unhealthy h);
  match (H.snapshot h).H.hs_trips with
  | [ t ] ->
      Alcotest.(check string) "reason" "vm-range" (H.reason_name t.H.t_reason);
      Alcotest.(check int) "cell" 1 t.H.t_cell;
      Alcotest.(check int) "step" 3 t.H.t_step
  | ts -> Alcotest.failf "expected one trip, got %d" (List.length ts)

let test_warn_reports_once () =
  let hits = ref [] in
  let h = monitor ~warn:(fun msg -> hits := msg :: !hits) ~gate:false () in
  sample1 h Float.nan;
  H.enforce h;
  sample1 h Float.nan;
  H.enforce h;
  (match !hits with
  | [ msg ] ->
      Alcotest.(check bool) "report names the variable" true
        (Helpers.contains msg "variable=x");
      Alcotest.(check bool) "report names the cell" true
        (Helpers.contains msg "cell=2");
      Alcotest.(check bool) "report names the step" true
        (Helpers.contains msg "step=7")
  | l -> Alcotest.failf "expected exactly one warning, got %d" (List.length l));
  Alcotest.(check int) "counters still accumulate" 2
    (let nan, _, _ = H.totals (H.snapshot h) in
     nan)

let test_abort_policy () =
  let h = monitor ~cfg:{ quiet with H.policy = H.Abort } ~gate:false () in
  sample1 h Float.infinity;
  (match H.enforce h with
  | exception H.Tripped msg ->
      Alcotest.(check bool) "abort names variable" true
        (Helpers.contains msg "variable=x")
  | () -> Alcotest.fail "Abort policy did not raise on an Inf trip");
  (* soft trips never abort *)
  let h = monitor ~cfg:{ quiet with H.policy = H.Abort } ~gate:true () in
  sample1 h 2.0;
  H.enforce h;
  Alcotest.(check bool) "gate trip with Abort only warns" true (H.tripped h)

let test_due_stride () =
  let h = monitor ~cfg:{ quiet with H.stride = 4 } ~gate:false () in
  Alcotest.(check (list bool))
    "stride-4 sampling pattern"
    [ true; false; false; false; true ]
    (List.map (fun step -> H.due h ~step) [ 0; 1; 2; 3; 4 ]);
  H.set_enabled h false;
  Alcotest.(check bool) "disabled is never due" false (H.due h ~step:0);
  (* a disabled monitor also ignores sample calls entirely *)
  sample1 h Float.nan;
  Alcotest.(check bool) "disabled never trips" false (H.tripped h)

let test_disabled_overhead () =
  (* the per-step gate must be one atomic load: a million [due] probes on
     a disabled monitor finish far inside any human-visible budget *)
  let h = monitor ~gate:false () in
  H.set_enabled h false;
  let t0 = Unix.gettimeofday () in
  let hits = ref 0 in
  for step = 1 to 1_000_000 do
    if H.due h ~step then incr hits
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "never due" 0 !hits;
  if dt > 2.0 then
    Alcotest.failf "1M disabled probes took %.2f s (expected well under 2 s)" dt

(* -- monitored runs are bitwise identical ------------------------------ *)

let test_monitored_bitwise_identical () =
  (* the observability guarantee extended to health sampling: monitoring
     a run (every step, every variable) never changes a single result
     bit, on any model, for both optimized engines *)
  List.iter
    (fun (e : Models.Model_def.entry) ->
      let m = Models.Registry.model e in
      let g = Codegen.Cache.generate (C.mlir ~width:4) m in
      List.iter
        (fun (ename, engine) ->
          let d = Sim.Driver.create ~engine g ~ncells:4 ~dt:0.01 in
          let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.05 ~duration:0.1 () in
          let steps = 20 in
          for _ = 1 to steps do
            Sim.Driver.step ~stim d
          done;
          let plain = Sim.Driver.snapshot d 1 in
          Sim.Driver.reset d;
          Sim.Driver.enable_health ~cfg:quiet ~warn:(fun _ -> ()) d;
          for _ = 1 to steps do
            Sim.Driver.step ~stim d
          done;
          let monitored = Sim.Driver.snapshot d 1 in
          (match Sim.Driver.health_snapshot d with
          | None -> Alcotest.failf "%s/%s: monitor vanished" e.name ename
          | Some hs ->
              if hs.H.hs_steps_sampled <> steps then
                Alcotest.failf "%s/%s: sampled %d of %d steps" e.name ename
                  hs.H.hs_steps_sampled steps);
          Sim.Driver.disable_health d;
          List.iter2
            (fun (n, a) (_, b) ->
              if not (Helpers.same_float a b) then
                Alcotest.failf "%s/%s: monitoring changed %s: %.17g vs %.17g"
                  e.name ename n a b)
            plain monitored)
        [ ("closure", Sim.Driver.Compiled); ("batched", Sim.Driver.Batched) ])
    Models.Registry.all

let test_parallel_matches_sequential () =
  (* chunk-local accumulators across worker Domains must merge to the
     same counts and extrema a one-Domain run produces *)
  let m = Models.Registry.model (Models.Registry.find_exn "TenTusscher") in
  let g = Codegen.Cache.generate (C.mlir ~width:4) m in
  let totals nthreads =
    let d = Sim.Driver.create g ~ncells:64 ~dt:0.01 in
    Sim.Driver.enable_health ~cfg:quiet ~warn:(fun _ -> ()) d;
    let stim = Sim.Stim.make ~amplitude:40.0 ~start:0.05 ~duration:0.1 () in
    for _ = 1 to 10 do
      Sim.Driver.step ~nthreads ~stim d
    done;
    let hs = Option.get (Sim.Driver.health_snapshot d) in
    Sim.Driver.disable_health d;
    List.map
      (fun (vs : H.var_stat) ->
        (vs.H.vs_name, vs.H.vs_samples, vs.H.vs_min, vs.H.vs_max, vs.H.vs_nan))
      hs.H.hs_vars
  in
  let seq = totals 1 and par = totals 4 in
  List.iter2
    (fun (n, c1, mn1, mx1, nan1) (_, c2, mn2, mx2, nan2) ->
      if
        c1 <> c2 || nan1 <> nan2
        || not (Helpers.same_float mn1 mn2 && Helpers.same_float mx1 mx2)
      then Alcotest.failf "parallel health diverged on %s" n)
    seq par

let test_driver_abort_names_trip () =
  (* a deliberately divergent model under the Abort policy: the compute
     stage must raise with a structured report *)
  let src =
    "Vm; .external(); .nodal();\nIion; .external(); .nodal();\n\
     Vm_init = -65.0;\nx; x_init = 10.0;\ndiff_x = -100.0*x*x;\n\
     Iion = 0.0*x;\n"
  in
  let m = Easyml.Sema.analyze_source ~name:"diverges" src in
  let g = Codegen.Cache.generate (C.mlir ~width:4) m in
  let d = Sim.Driver.create g ~ncells:8 ~dt:0.01 in
  Sim.Driver.enable_health
    ~cfg:{ quiet with H.policy = H.Abort }
    ~warn:(fun _ -> ())
    d;
  let rec drive n =
    if n > 100 then Alcotest.fail "divergent model never tripped"
    else
      match Sim.Driver.step d with
      | () -> drive (n + 1)
      | exception H.Tripped msg ->
          List.iter
            (fun part ->
              if not (Helpers.contains msg part) then
                Alcotest.failf "report %S lacks %S" msg part)
            [ "model=diverges"; "variable=x"; "cell="; "step="; "reason=" ]
  in
  drive 1;
  Sim.Driver.disable_health d

(* -- HTTP endpoint ----------------------------------------------------- *)

let http_request ?(meth = "GET") (port : int) (path : string) : string =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 in
      let bytes = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd bytes 0 (Bytes.length bytes) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf bytes 0 n;
            drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

let status_of (resp : string) : int =
  (* "HTTP/1.1 200 OK" *)
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> ( try int_of_string code with _ -> -1)
  | _ -> -1

let test_httpd_serves () =
  let calls = Atomic.make 0 in
  let server =
    Obs.Httpd.start ~port:0 (fun path ->
        Atomic.incr calls;
        if path = "/metrics" then
          Some
            {
              Obs.Httpd.status = 200;
              content_type = "text/plain";
              body = "limpetmlir_up 1\n";
            }
        else if path = "/boom" then failwith "handler exploded"
        else None)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Httpd.stop server)
    (fun () ->
      let port = Obs.Httpd.port server in
      Alcotest.(check bool) "ephemeral port picked" true (port > 0);
      let ok = http_request port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 (status_of ok);
      Alcotest.(check bool) "body served" true
        (Helpers.contains ok "limpetmlir_up 1");
      Alcotest.(check int) "unknown path 404" 404
        (status_of (http_request port "/nope"));
      Alcotest.(check int) "raising handler 500" 500
        (status_of (http_request port "/boom"));
      Alcotest.(check int) "non-GET 405" 405
        (status_of (http_request ~meth:"POST" port "/metrics"));
      (* HEAD: same status and headers as GET — including the
         Content-Length of the body it would have sent — but no body *)
      let head = http_request ~meth:"HEAD" port "/metrics" in
      Alcotest.(check int) "HEAD 200" 200 (status_of head);
      Alcotest.(check bool) "HEAD carries the GET content length" true
        (Helpers.contains head
           (Printf.sprintf "Content-Length: %d"
              (String.length "limpetmlir_up 1\n")));
      Alcotest.(check bool) "HEAD sends no body" false
        (Helpers.contains head "limpetmlir_up");
      Alcotest.(check int) "HEAD on unknown path 404" 404
        (status_of (http_request ~meth:"HEAD" port "/nope"));
      (* every response declares its length (GET includes the body) *)
      Alcotest.(check bool) "GET declares Content-Length" true
        (Helpers.contains ok
           (Printf.sprintf "Content-Length: %d"
              (String.length "limpetmlir_up 1\n")));
      Alcotest.(check bool) "handler ran" true (Atomic.get calls > 0));
  (* stop is idempotent, and the port is released for a new server *)
  Obs.Httpd.stop server;
  let again = Obs.Httpd.start ~port:0 (fun _ -> None) in
  Obs.Httpd.stop again

let suite =
  [
    reducer_oracle;
    layout_oracle;
    Alcotest.test_case "soft and hard trips" `Quick test_soft_and_hard_trips;
    Alcotest.test_case "warn reports once per (var, reason)" `Quick
      test_warn_reports_once;
    Alcotest.test_case "abort policy raises on hard trips" `Quick
      test_abort_policy;
    Alcotest.test_case "due honors stride and enable" `Quick test_due_stride;
    Alcotest.test_case "disabled monitoring overhead" `Quick
      test_disabled_overhead;
    Alcotest.test_case "monitored runs bitwise identical (43 models)" `Quick
      test_monitored_bitwise_identical;
    Alcotest.test_case "parallel sampling matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "driver abort names the trip" `Quick
      test_driver_abort_names_trip;
    Alcotest.test_case "httpd serves, routes and stops" `Quick
      test_httpd_serves;
  ]
