(* Mv_obs: registry semantics, histogram bucketing, series
   decimation, span nesting, exporter validity, and the instrumented
   flow end to end. Every test resets the registry first — reset
   orphans previously obtained handles, so handles are re-acquired
   after it. *)

module Obs = Mv_obs.Obs
module Json = Mv_obs.Json
module Log = Mv_obs.Log
module Openmetrics = Mv_obs.Openmetrics
module Flow = Mv_core.Flow

let fresh () =
  Obs.reset ();
  Obs.enable ()

let member name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" name

let test_registry () =
  fresh ();
  let c = Obs.counter "t.count" in
  Alcotest.(check bool) "get-or-create returns the same counter" true
    (c == Obs.counter "t.count");
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value c);
  let g = Obs.gauge "t.gauge" in
  Obs.set g 2.5;
  Obs.set g 1.5;
  Alcotest.(check (float 0.0)) "gauge keeps last value" 1.5 (Obs.gauge_value g);
  (try
     ignore (Obs.gauge "t.count");
     Alcotest.fail "expected a kind clash"
   with Invalid_argument _ -> ());
  Obs.reset ();
  Alcotest.(check bool) "reset disables" false (Obs.is_enabled ());
  Obs.enable ();
  Alcotest.(check int) "reset drops values" 0
    (Obs.counter_value (Obs.counter "t.count"))

let test_disabled_is_inert () =
  Obs.reset ();
  let c = Obs.counter "t.off" and s = Obs.series "t.off.series" in
  Obs.incr c;
  Obs.push s 1.0;
  let r = Obs.span "t.off.span" (fun () -> 17) in
  Alcotest.(check int) "span still runs the body" 17 r;
  Alcotest.(check int) "disabled counter" 0 (Obs.counter_value c);
  let total, _, values = Obs.series_values s in
  Alcotest.(check int) "disabled series" 0 total;
  Alcotest.(check (list (float 0.0))) "disabled series values" [] values;
  Alcotest.(check int) "disabled span not recorded" 0
    (List.length (Obs.spans ()))

let test_histogram_buckets () =
  (* interior bucket i covers [2^(i-31), 2^(i-30)); bucket 0 collects
     non-positives and the left tail, bucket 62 the right tail *)
  Alcotest.(check int) "zero" 0 (Obs.bucket_of 0.0);
  Alcotest.(check int) "negative" 0 (Obs.bucket_of (-3.0));
  Alcotest.(check int) "1.0" 31 (Obs.bucket_of 1.0);
  Alcotest.(check int) "huge clamps" 62 (Obs.bucket_of 1e40);
  Alcotest.(check (float 0.0)) "bucket_lt 31" 2.0 (Obs.bucket_lt 31);
  Alcotest.(check (float 0.0)) "last bound" infinity (Obs.bucket_lt 62);
  List.iter
    (fun v ->
       let i = Obs.bucket_of v in
       Alcotest.(check bool)
         (Printf.sprintf "%g below its bucket bound" v)
         true
         (v < Obs.bucket_lt i);
       if i > 0 then
         Alcotest.(check bool)
           (Printf.sprintf "%g at or above the previous bound" v)
           true
           (v >= Obs.bucket_lt (i - 1)))
    [ 1e-12; 0.25; 0.9; 1.0; 1.5; 2.0; 3.14; 1024.0; 123456.789 ]

let test_series_decimation () =
  fresh ();
  let s = Obs.series "t.series" in
  for i = 0 to 9_999 do
    Obs.push s (float_of_int i)
  done;
  let total, stride, values = Obs.series_values s in
  Alcotest.(check int) "total counts every push" 10_000 total;
  Alcotest.(check bool) "stride grew past 1" true (stride > 1);
  Alcotest.(check bool) "stride is a power of two" true
    (stride land (stride - 1) = 0);
  Alcotest.(check bool) "retained within cap" true (List.length values <= 4096);
  (* deterministic shape: value k is push number k * stride *)
  List.iteri
    (fun k v ->
       Alcotest.(check (float 0.0))
         (Printf.sprintf "retained point %d" k)
         (float_of_int (k * stride))
         v)
    values

let test_span_nesting () =
  fresh ();
  let inner_result =
    Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "body result" 42 inner_result;
  (try
     Obs.span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  let find name =
    match List.find_opt (fun sp -> sp.Obs.sp_name = name) (Obs.spans ()) with
    | Some sp -> sp
    | None -> Alcotest.failf "span %S not recorded" name
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check (option int)) "outer is a root" None outer.Obs.sp_parent;
  Alcotest.(check (option int)) "inner nests under outer"
    (Some outer.Obs.sp_id) inner.Obs.sp_parent;
  Alcotest.(check bool) "outer at least as long as inner" true
    (Int64.compare outer.Obs.sp_dur_ns inner.Obs.sp_dur_ns >= 0);
  let failing = find "failing" in
  Alcotest.(check (option int)) "exception path still records" None
    failing.Obs.sp_parent;
  Alcotest.(check bool) "aggregate covers outer" true
    (Obs.span_total_s "outer" >= 0.0)

let test_metrics_json_roundtrip () =
  fresh ();
  Obs.add (Obs.counter "t.count") 3;
  Obs.set (Obs.gauge "t.gauge") 0.25;
  Obs.observe (Obs.histogram "t.hist") 1.5;
  Obs.push (Obs.series "t.series") 9.0;
  ignore (Obs.span "t.span" (fun () -> ()));
  let json = Obs.metrics_json () in
  Alcotest.(check bool) "schema tag" true
    (Json.equal (member "schema" json) (Json.String "mv-obs-metrics-v1"));
  Alcotest.(check bool) "counter exported" true
    (Json.equal (member "t.count" (member "counters" json)) (Json.Int 3));
  (match member "t.span" (member "timings" json) with
   | Json.Obj _ -> ()
   | _ -> Alcotest.fail "timings entry should be an object");
  let reparsed = Json.of_string (Json.to_string json) in
  Alcotest.(check bool) "pretty round-trip" true (Json.equal json reparsed);
  let compact = Json.of_string (Json.to_string ~compact:true json) in
  Alcotest.(check bool) "compact round-trip" true (Json.equal json compact)

let test_trace_json () =
  fresh ();
  ignore (Obs.span "alpha" (fun () -> Obs.span "beta" (fun () -> ())));
  let json = Obs.trace_json () in
  let events =
    match member "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents should be an array"
  in
  Alcotest.(check int) "one event per span" 2 (List.length events);
  List.iter
    (fun event ->
       Alcotest.(check bool) "complete event" true
         (Json.equal (member "ph" event) (Json.String "X"));
       List.iter
         (fun field ->
            match member field event with
            | Json.Float v -> Alcotest.(check bool) field true (v >= 0.0)
            | _ -> Alcotest.failf "%s should be a non-negative float" field)
         [ "ts"; "dur" ];
       List.iter
         (fun field ->
            match member field event with
            | Json.Int n -> Alcotest.(check bool) field true (n >= 0)
            | _ -> Alcotest.failf "%s should be a non-negative int" field)
         [ "pid"; "tid" ];
       match member "name" event with
       | Json.String _ -> ()
       | _ -> Alcotest.fail "name should be a string")
    events;
  Alcotest.(check bool) "trace round-trips" true
    (Json.equal json (Json.of_string (Json.to_string json)))

let queue_text =
  {|
process Producer := rate 2.0 ; push ; Producer
process Consumer := pop ; rate 3.0 ; Consumer
process Queue (n : int[0..3]) :=
    [n < 3] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
init (Producer |[push]| Queue(0)) |[pop]| Consumer
|}

let test_flow_instrumented () =
  fresh ();
  let spec = Flow.model_of_text queue_text in
  (* the sweeps, forced: the default eliminates a chain this small *)
  let perf =
    Flow.Run.performance
      Flow.Config.(
        default
        |> with_keep [ "pop" ]
        |> with_solve_method (Some Mv_kern.Solver.Gauss_seidel))
      spec
  in
  let throughput = Flow.throughput perf ~gate:"pop" in
  Alcotest.(check bool) "throughput positive" true (throughput > 0.0);
  let stats = Flow.solver_stats perf in
  Alcotest.(check bool) "solver converged" true
    stats.Mv_markov.Solver_stats.converged;
  Alcotest.(check bool) "solver iterated" true
    (stats.Mv_markov.Solver_stats.iterations > 0);
  Alcotest.(check bool) "explorer counted states" true
    (Obs.counter_value (Obs.counter "explore.states") > 0);
  Alcotest.(check bool) "explorer counted transitions" true
    (Obs.counter_value (Obs.counter "explore.transitions") > 0);
  Alcotest.(check int) "solver iterations counter matches stats"
    stats.Mv_markov.Solver_stats.iterations
    (Obs.counter_value (Obs.counter "solver.iterations"));
  let total, _, residuals = Obs.series_values (Obs.series "solver.residual") in
  Alcotest.(check bool) "residual series populated" true (total > 0);
  Alcotest.(check bool) "residuals decrease overall" true
    (match (residuals, List.rev residuals) with
     | first :: _, last :: _ -> last <= first
     | _ -> false);
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (Printf.sprintf "span %S recorded" name)
         true
         (Obs.span_total_s name > 0.0))
    [ "explore"; "flow.generate"; "imc.lump"; "ctmc.steady_state"; "flow.solve" ];
  Alcotest.(check bool) "headlines curated" true
    (List.mem_assoc "states explored" (Obs.headlines ()));
  (* the default path records the elimination instead of sweeps *)
  fresh ();
  let perf =
    Flow.Run.performance Flow.Config.(default |> with_keep [ "pop" ]) spec
  in
  let stats = Flow.solver_stats perf in
  Alcotest.(check bool) "direct: converged" true
    stats.Mv_markov.Solver_stats.converged;
  Alcotest.(check int) "direct: no iterations" 0
    stats.Mv_markov.Solver_stats.iterations;
  Alcotest.(check int) "direct: one BSCC eliminated" 1
    (Obs.counter_value (Obs.counter "solver.direct"));
  Alcotest.(check int) "direct: no fallback" 0
    (Obs.counter_value (Obs.counter "solver.direct_fallbacks"));
  Alcotest.(check bool) "direct: band widths recorded" true
    (Obs.gauge_value (Obs.gauge "solver.bandwidth_lower") >= 1.0
     && Obs.gauge_value (Obs.gauge "solver.bandwidth_upper") >= 1.0);
  Alcotest.(check bool) "direct: final residual recorded" true
    (Obs.gauge_value (Obs.gauge "solver.final_residual")
     = stats.Mv_markov.Solver_stats.residual);
  Alcotest.(check bool) "direct: headline" true
    (List.mem_assoc "direct solves" (Obs.headlines ()));
  Alcotest.(check bool) "direct: throughput agrees with the sweeps" true
    (Float.abs (Flow.throughput perf ~gate:"pop" -. throughput) < 1e-9)

(* Branching refinement reports like strong does: one [kern.branching]
   span per refinement, its signature rounds and its final block
   count. *)
let test_branching_instrumented () =
  fresh ();
  let lts = Flow.Run.generate Flow.Config.default (Flow.model_of_text queue_text) in
  let p = Mv_bisim.Branching.partition lts in
  Alcotest.(check bool) "span recorded" true
    (Obs.span_total_s "kern.branching" > 0.0);
  Alcotest.(check bool) "rounds counted" true
    (Obs.counter_value (Obs.counter "kern.branching.rounds") >= 1);
  Alcotest.(check (float 0.0)) "blocks of the partition"
    (float_of_int p.Mv_bisim.Partition.count)
    (Obs.gauge_value (Obs.gauge "kern.branching.blocks"))

let test_parallel_matches_sequential () =
  fresh ();
  let spec = Flow.model_of_text queue_text in
  let perf =
    Flow.Run.performance Flow.Config.(default |> with_keep [ "pop" ]) spec
  in
  let imc = perf.Flow.imc in
  let stats pool =
    Mv_sim.Des.throughput_stats ?pool imc ~action:"pop" ~horizon:200.0
      ~replications:16 ~seed:7L
  in
  let sequential = stats None in
  let parallel =
    Mv_par.Pool.scope ~domains:4 (fun pool -> stats (Some pool))
  in
  Alcotest.(check (float 0.0)) "means identical across -j"
    sequential.Mv_sim.Des.mean parallel.Mv_sim.Des.mean;
  Alcotest.(check (float 0.0)) "stddevs identical across -j"
    sequential.Mv_sim.Des.stddev parallel.Mv_sim.Des.stddev;
  Alcotest.(check bool) "replications counted" true
    (Obs.counter_value (Obs.counter "des.replications") >= 32);
  Alcotest.(check bool) "events counted" true
    (Obs.counter_value (Obs.counter "des.events") > 0);
  let total, _, walls = Obs.series_values (Obs.series "des.replication_s") in
  Alcotest.(check bool) "replication wall times recorded" true (total >= 32);
  List.iter
    (fun w -> Alcotest.(check bool) "wall times non-negative" true (w >= 0.0))
    walls;
  Alcotest.(check bool) "pool accounted busy time" true
    (Obs.gauge_value (Obs.gauge "par.pool.wall_s") > 0.0)

let test_clock_monotone_across_domains () =
  (* regression for the lock-free CAS-max clamp: no domain may ever
     observe the shared clock moving backwards *)
  let t0 = Obs.Clock.now_ns () in
  let reads_per_domain = 10_000 in
  let monotone =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop i last ok =
              if i = 0 then ok
              else
                let t = Obs.Clock.now_ns () in
                loop (i - 1) t (ok && Int64.compare last t <= 0)
            in
            loop reads_per_domain (Obs.Clock.now_ns ()) true))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i ok ->
       Alcotest.(check bool)
         (Printf.sprintf "domain %d saw a monotone clock" i)
         true ok)
    monotone;
  Alcotest.(check bool) "clock advanced across the whole test" true
    (Int64.compare t0 (Obs.Clock.now_ns ()) <= 0)

let test_reset_with_open_span () =
  (* a span still open when the registry is reset must not record into
     the fresh epoch — neither itself nor as a dangling parent *)
  fresh ();
  ignore
    (Obs.span "outer" (fun () ->
         Obs.reset ();
         Obs.enable ();
         Obs.span "inner" (fun () -> 5)));
  match Obs.spans () with
  | [ inner ] ->
    Alcotest.(check string) "only the post-reset span records" "inner"
      inner.Obs.sp_name;
    Alcotest.(check (option int)) "inner is a root, not outer's child" None
      inner.Obs.sp_parent
  | spans ->
    Alcotest.failf "expected exactly the inner span, got %d span(s)"
      (List.length spans)

let quantile_prop =
  (* estimates are monotone in q and always land inside the bucket
     holding the exact sample quantile *)
  QCheck2.Test.make
    ~name:"quantile estimates are monotone and bucket-accurate" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (map (fun i -> (float_of_int i +. 1.0) /. 1000.0) (int_bound 999_999)))
    (fun samples ->
       fresh ();
       let h = Obs.histogram "t.quantile" in
       List.iter (Obs.observe h) samples;
       let n = List.length samples in
       let sorted = List.sort compare samples in
       let qs = [ 0.0; 0.1; 0.25; 0.5; 0.9; 0.99; 1.0 ] in
       let estimates = List.map (Obs.quantile h) qs in
       let rec monotone = function
         | a :: (b :: _ as rest) -> a <= b && monotone rest
         | _ -> true
       in
       let bracketed =
         List.for_all2
           (fun q est ->
              let rank = int_of_float (ceil (max 1.0 (q *. float_of_int n))) in
              let exact = List.nth sorted (rank - 1) in
              let b = Obs.bucket_of exact in
              Obs.bucket_ge b <= est && est <= Obs.bucket_lt b)
           qs estimates
       in
       Obs.reset ();
       monotone estimates && bracketed)

let test_openmetrics_golden () =
  (* exact exposition: family splitting, label escaping, cumulative
     buckets, the mandatory +Inf line, and the EOF terminator *)
  fresh ();
  Obs.add (Obs.counter "om.requests") 3;
  Obs.set (Obs.gauge "om.depth") 2.5;
  let h1 = Obs.histogram "om.lat.alpha\"x" in
  Obs.observe h1 0.5;
  Obs.observe h1 1.5;
  Obs.observe h1 1.5;
  Obs.observe (Obs.histogram "om.lat.b\\d") 0.5;
  let rendered = Openmetrics.render ~families:[ ("om.lat.", "op") ] () in
  (* the process peak-RSS gauge is refreshed on every exposition; its
     value varies, so check it structurally and strip it before the
     golden comparison *)
  Alcotest.(check bool)
    "exposition carries process_maxrss_kb" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun line ->
           match String.split_on_char ' ' line with
           | [ "process_maxrss_kb"; v ] -> float_of_string v > 0.
           | _ -> false));
  let rendered =
    String.split_on_char '\n' rendered
    |> List.filter (fun line ->
           not
             (String.starts_with ~prefix:"process_maxrss_kb" line
             || line = "# TYPE process_maxrss_kb gauge"))
    |> String.concat "\n"
  in
  let expected =
    String.concat "\n"
      [
        {|# TYPE om_requests counter|};
        {|om_requests_total 3|};
        {|# TYPE om_depth gauge|};
        {|om_depth 2.5|};
        {|# TYPE om_lat histogram|};
        {|om_lat_bucket{op="alpha\"x",le="1"} 1|};
        {|om_lat_bucket{op="alpha\"x",le="2"} 3|};
        {|om_lat_bucket{op="alpha\"x",le="+Inf"} 3|};
        {|om_lat_sum{op="alpha\"x"} 3.5|};
        {|om_lat_count{op="alpha\"x"} 3|};
        {|om_lat_bucket{op="b\\d",le="1"} 1|};
        {|om_lat_bucket{op="b\\d",le="+Inf"} 1|};
        {|om_lat_sum{op="b\\d"} 0.5|};
        {|om_lat_count{op="b\\d"} 1|};
        {|# EOF|};
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected rendered

let test_log_ring () =
  Log.clear ();
  let captured = ref [] in
  Log.set_sink (Some (fun e -> captured := e :: !captured));
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.clear ())
    (fun () ->
       Obs.with_request "req-log-1" (fun () ->
           Log.info ~op:"test" ~fields:[ ("k", Json.Int 1) ] "tagged");
       for i = 1 to Log.capacity + 49 do
         Log.debug (Printf.sprintf "event %d" i)
       done;
       let events = Log.recent () in
       Alcotest.(check int) "ring keeps the last capacity events" Log.capacity
         (List.length events);
       (* oldest first, contiguous, ending at the newest event *)
       List.iteri
         (fun i e ->
            Alcotest.(check int) "sequence contiguous" (50 + i) e.Log.ev_seq)
         events;
       Alcotest.(check int) "limit keeps the newest" 10
         (List.length (Log.recent ~limit:10 ()));
       Alcotest.(check int) "sink called once per event" (Log.capacity + 50)
         (List.length !captured);
       let tagged = List.find (fun e -> e.Log.ev_msg = "tagged") !captured in
       Alcotest.(check (option string))
         "events default to the domain's request context" (Some "req-log-1")
         tagged.Log.ev_request;
       Alcotest.(check bool) "level recorded" true
         (tagged.Log.ev_level = Log.Info);
       (* the mv-log-v1 dump document *)
       let dump = Log.dump_json ~limit:3 () in
       Alcotest.(check bool) "dump schema" true
         (Json.member "schema" dump = Some (Json.String Log.schema));
       (match Json.member "events" dump with
        | Some (Json.List l) ->
          Alcotest.(check int) "dump honours the limit" 3 (List.length l)
        | _ -> Alcotest.fail "dump lacks events");
       (* one compact line per event, parseable back *)
       let reparsed = Json.of_string (Log.line tagged) in
       Alcotest.(check bool) "log line round-trips" true
         (Json.member "msg" reparsed = Some (Json.String "tagged")))

let cleanup f () =
  Fun.protect ~finally:Obs.reset f

let suite =
  [
    Alcotest.test_case "registry get-or-create, kinds, reset" `Quick
      (cleanup test_registry);
    Alcotest.test_case "disabled recording is inert" `Quick
      (cleanup test_disabled_is_inert);
    Alcotest.test_case "histogram bucketing" `Quick
      (cleanup test_histogram_buckets);
    Alcotest.test_case "series decimation is deterministic" `Quick
      (cleanup test_series_decimation);
    Alcotest.test_case "span nesting and exception safety" `Quick
      (cleanup test_span_nesting);
    Alcotest.test_case "metrics JSON round-trip" `Quick
      (cleanup test_metrics_json_roundtrip);
    Alcotest.test_case "Chrome trace validity" `Quick
      (cleanup test_trace_json);
    Alcotest.test_case "instrumented flow end to end" `Quick
      (cleanup test_flow_instrumented);
    Alcotest.test_case "branching refinement instrumented" `Quick
      (cleanup test_branching_instrumented);
    Alcotest.test_case "parallel replications match sequential" `Slow
      (cleanup test_parallel_matches_sequential);
    Alcotest.test_case "clock monotone across domains" `Quick
      (cleanup test_clock_monotone_across_domains);
    Alcotest.test_case "reset with an open span" `Quick
      (cleanup test_reset_with_open_span);
    QCheck_alcotest.to_alcotest quantile_prop;
    Alcotest.test_case "OpenMetrics golden exposition" `Quick
      (cleanup test_openmetrics_golden);
    Alcotest.test_case "log flight recorder" `Quick (cleanup test_log_ring);
  ]
