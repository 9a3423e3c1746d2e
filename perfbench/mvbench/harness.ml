(* The measurement loop shared by every workload: repeated set-up,
   timed passes until the time budget is spent, golden-answer checks,
   the traced variant, and the metric values of a run. *)

module Json = Mv_obs.Json

type size = Full | Smoke

(* What one pass reports besides its wall time. *)
type outcome = {
  latencies : float list;  (** seconds per request; a batch pass is one request *)
  attempted : int;  (** operations run (commands or requests) *)
  failed : int;  (** operations that failed or answered wrongly *)
  answers : (string * Json.t) list;  (** seed-invariant facts, checked against golden *)
  layers : (string * float) list;  (** per-layer metrics (traced passes) *)
}

type instance = {
  pass : traced:bool -> outcome;
  finish : traced:bool -> (string * float) list * int;
      (** after each pass, untimed: probes (traced), slow checks and
          clean-up; returns probed layer metrics and failures *)
  orphans : unit -> string list;  (** leftover scratch or temp files *)
  close : unit -> unit;
}

type workload = {
  name : string;
  cores : int;  (** cores a pass keeps busy: copies of the yardstick run at once *)
  setup : size:size -> seed:int -> dir:string -> instance;
}

(* ---------------------------------------------------------------- *)
(* The metric catalogue (BENCHMARK.json lists the same names)         *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_rss_mb", "MB");
    ("req_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p98_ms", "ms");
  ]

let per_layer =
  [
    ("calc.generate.s", "s");
    ("calc.generate.states", "count");
    ("calc.generate.transitions", "count");
    ("calc.generate.states_per_s", "1/s");
    ("calc.generate.alloc_mw", "Mword");
    ("mcl.eval.s", "s");
    ("mcl.eval.states", "count");
    ("lts.witness.s", "s");
    ("lts.witness.length", "count");
    ("bisim.strong.s", "s");
    ("bisim.strong.states_out", "count");
    ("bisim.branching.s", "s");
    ("bisim.branching.states_in", "count");
    ("bisim.branching.states_out", "count");
    ("bisim.branching.alloc_mw", "Mword");
    ("imc.build.s", "s");
    ("imc.lump.s", "s");
    ("imc.lump.states_in", "count");
    ("imc.lump.states_out", "count");
    ("imc.lump.alloc_mw", "Mword");
    ("imc.to_ctmc.s", "s");
    ("imc.to_ctmc.ctmc_states", "count");
    ("markov.solve.s", "s");
    ("markov.solve.iterations", "count");
    ("markov.solve.us_per_sweep", "us");
    ("markov.solve.residual", "ratio");
    ("lts.explore_ooc.s", "s");
    ("lts.explore_ooc.states_per_s", "1/s");
    ("lts.explore_ooc.spill_runs", "count");
    ("lts.explore_ooc.spilled_mb", "MB");
    ("lts.explore_ooc.cold_lookups", "count");
    ("lts.explore_ooc.bloom_negative_ratio", "ratio");
    ("store.mvb.write_s", "s");
    ("store.mvb.bytes", "bytes");
    ("kern.csr.s", "s");
    ("kern.csr.mmap_mb", "MB");
    ("kern.refine.s", "s");
    ("kern.refine.splitters", "count");
    ("kern.refine.blocks", "count");
    ("flow.minimize_ooc.self_s", "s");
    ("store.cache.hits", "count");
    ("store.cache.misses", "count");
    ("store.cache.hit_ratio", "ratio");
    ("store.cache.find_s", "s");
    ("store.cache.store_s", "s");
    ("serve.queue.wait_p50_ms", "ms");
    ("serve.queue.wait_p99_ms", "ms");
    ("serve.exec.p50_ms", "ms");
    ("serve.exec.p99_ms", "ms");
    ("serve.proto.overhead_ms", "ms");
    ("trace.wall_s", "s");
    ("trace.overhead_s", "s");
    ("trace.coverage", "ratio");
    ("calib.yardstick_s", "s");
  ]

(* ---------------------------------------------------------------- *)
(* Statistics                                                         *)

let median = function
  | [] -> nan
  | values ->
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p = function
  | [] -> nan
  | values ->
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Span.seconds (Span.now_ns ())

let words_allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [measured_alloc f] is [f ()] with the million words it allocated. *)
let measured_alloc f =
  let w0 = words_allocated () in
  let r = f () in
  (r, (words_allocated () -. w0) /. 1e6)

(* ---------------------------------------------------------------- *)
(* Scratch directories                                                *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  remove_tree path;
  Unix.mkdir path 0o755;
  path

(* Every file under [dir], as paths relative to it. *)
let rec files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then List.map (Filename.concat e) (files p) else [ e ])

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* Golden answers                                                     *)

let size_name = function Full -> "full" | Smoke -> "smoke"

let golden_of ~file ~workload ~size =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.member workload (Json.of_string text) with
  | Some w -> (
    match Json.member (size_name size) w with Some (Json.Obj f) -> f | _ -> [])
  | None -> []

(* Floats (throughputs) agree within 1e-9; everything else exactly. *)
let same_answer got want =
  match (got, want) with
  | Json.Float a, Json.Float b -> Float.abs (a -. b) <= 1e-9
  | _ -> Json.equal got want

let mismatches golden answers =
  let show = Json.to_string ~compact:true in
  List.filter_map
    (fun (key, got) ->
      match List.assoc_opt key golden with
      | Some want when same_answer got want -> None
      | Some want -> Some (Printf.sprintf "%s: got %s, golden %s" key (show got) (show want))
      | None -> Some (Printf.sprintf "%s: got %s, no golden answer" key (show got)))
    answers

(* ---------------------------------------------------------------- *)
(* The run                                                            *)

type totals = {
  mutable attempted : int;
  mutable failed : int;
  mutable passes : (float * float list * float) list;
      (** wall, request latencies, speed factor; newest first *)
  mutable layer_samples : (float * (string * float) list) list;  (** speed factor, metrics *)
  mutable yardsticks : float list;  (** yardstick times, two per pass *)
}

let setup_repetitions = 31
let setups_per_pass = 5

let at_nominal_speed ~unit k v =
  match unit with "s" | "ms" | "us" -> v *. k | "1/s" -> v /. k | _ -> v

(* Run one pass of [inst] and fold it into [t]; returns its wall time
   and its speed factor: the nominal yardstick time over the mean of
   the yardstick times measured right before and right after the pass
   (see [Calib]). A time measured in the pass, times the factor, is
   that time at the nominal speed. *)
let pass t ~golden ~traced ~yardstick inst =
  if traced then Span.reset ();
  let before = Calib.measure yardstick in
  let t0 = now () in
  let outcome = Span.with_ "pass" (fun () -> inst.pass ~traced) in
  let wall = now () -. t0 in
  let after = Calib.measure yardstick in
  t.yardsticks <- after :: before :: t.yardsticks;
  let k = Calib.nominal_s /. ((before +. after) /. 2.0) in
  let layers =
    if traced then begin
      let spans = Span.all () in
      let root = List.find (fun s -> s.Span.name = "pass" && s.Span.parent = None) spans in
      let coverage = 1.0 -. (Span.self_s spans root /. Span.duration_s root) in
      ("trace.wall_s", wall) :: ("trace.coverage", coverage) :: outcome.layers
    end
    else []
  in
  let probed, late_failures = inst.finish ~traced in
  let wrong = mismatches golden outcome.answers in
  let orphans = inst.orphans () in
  List.iter (fun m -> prerr_endline ("wrong answer: " ^ m)) wrong;
  List.iter (fun f -> prerr_endline ("orphan file: " ^ f)) orphans;
  t.attempted <- t.attempted + outcome.attempted;
  t.failed <-
    t.failed + outcome.failed + late_failures
    + (if wrong = [] then 0 else 1)
    + if orphans = [] then 0 else 1;
  let latencies = if outcome.latencies = [] then [ wall ] else outcome.latencies in
  t.passes <- (wall, latencies, k) :: t.passes;
  if traced then t.layer_samples <- (k, layers @ probed) :: t.layer_samples;
  (wall, k)

(* End-to-end metrics of the untraced passes, each time at the nominal
   speed: a pass's times are scaled by its own speed factor, set-up
   times by the run's median yardstick. On a shared machine the same
   work runs up to twice as slow, in stretches from a second to many
   minutes, and the yardstick slows with it. [wall_s] and [req_per_s]
   are medians over the passes. A latency percentile is taken over
   every request of the run, pooled across its passes, when ten or more
   requests lie beyond it, else it is their median: a batch pass is one
   request, and a run holds only ten to twenty. *)
let end_to_end_values t ~setups =
  let scaled = List.map (fun (wall, l, k) -> (wall *. k, List.map (( *. ) k) l)) t.passes in
  let requests = List.concat_map snd scaled in
  let latency_ms p =
    let enough = float (List.length requests) *. (1.0 -. p) >= 10.0 in
    1000.0 *. if enough then percentile p requests else median requests
  in
  [
    ("setup_s", median setups *. Calib.nominal_s /. median t.yardsticks);
    ("wall_s", median (List.map fst scaled));
    ("peak_rss_mb", float (Mv_obs.Obs.maxrss_kb ()) /. 1024.0);
    ("req_per_s", median (List.map (fun (wall, l) -> float (List.length l) /. wall) scaled));
    ("latency_p50_ms", latency_ms 0.50);
    ("latency_p98_ms", latency_ms 0.98);
  ]

(* Per-layer metrics: medians over the traced passes, times at the
   nominal speed like the end-to-end ones. *)
let per_layer_values t ~untraced_walls =
  let value name ~unit =
    median
      (List.filter_map
         (fun (k, sample) -> Option.map (at_nominal_speed ~unit k) (List.assoc_opt name sample))
         t.layer_samples)
  in
  List.map
    (fun (name, unit) ->
      match name with
      | "trace.overhead_s" -> (name, value "trace.wall_s" ~unit -. median untraced_walls)
      | "calib.yardstick_s" -> (name, median t.yardsticks)
      | _ -> (name, value name ~unit))
    per_layer

let print_result ~correct ~attempted ~failed metrics =
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics

(* One run: [(attempted, failed, [(name, unit, value)])]. *)
let run w ~size ~seed ~seconds ~trace ~golden_file ~scratch =
  let golden = golden_of ~file:golden_file ~workload:w.name ~size in
  (* Set up several times before the first pass, keeping the last
     instance, and a few more times after each pass: each set-up in a
     fresh directory. *)
  let setups = ref [] in
  let set_up name =
    let dir = fresh_dir (Filename.concat scratch name) in
    let t0 = now () in
    let inst = w.setup ~size ~seed ~dir in
    setups := (now () -. t0) :: !setups;
    inst
  in
  for i = 2 to setup_repetitions do
    (set_up (Printf.sprintf "setup%d" i)).close ()
  done;
  let inst = set_up "setup1" in
  let t = { attempted = 0; failed = 0; passes = []; layer_samples = []; yardsticks = [] } in
  Fun.protect ~finally:inst.close @@ fun () ->
  (* A traced run alternates untraced and traced passes, starting
     untraced: the untraced ones are the baseline of the overhead. *)
  let untraced_walls = ref [] in
  let yardstick = Calib.start ~copies:w.cores in
  Fun.protect ~finally:(fun () -> Calib.stop yardstick) @@ fun () ->
  let started = now () in
  let rec loop () =
    let traced = trace && List.length !untraced_walls > List.length t.layer_samples in
    if
      t.passes = []
      || (trace && t.layer_samples = [])
      || now () -. started +. median (List.map (fun (wall, _, _) -> wall) t.passes) <= seconds
    then begin
      Mv_obs.Obs.reset ();
      if traced then Mv_obs.Obs.enable ();
      Span.enabled := traced;
      let wall, k = pass t ~golden ~traced ~yardstick inst in
      if trace && not traced then untraced_walls := (wall *. k) :: !untraced_walls;
      for _ = 1 to setups_per_pass do
        (set_up "extra").close ()
      done;
      loop ()
    end
  in
  loop ();
  Span.enabled := false;
  Mv_obs.Obs.reset ();
  if not trace then begin
    let s = !setups and y = median t.yardsticks in
    Printf.eprintf "DIAG setup min %.9g med %.9g yard %.6f n %d\n%!"
      (List.fold_left Float.min infinity s) (median s) y (List.length s);
    List.iter (fun (w, l, k) -> Printf.eprintf "DIAG pass %.6f %.6f %.6f %.6f\n%!" w k (percentile 0.5 l) (percentile 0.98 l)) (List.rev t.passes);
    List.iter (fun y -> Printf.eprintf "DIAG yard %.6f\n%!" y) (List.rev t.yardsticks)
  end;
  let catalogue, values =
    if trace then (per_layer, per_layer_values t ~untraced_walls:!untraced_walls)
    else (end_to_end, end_to_end_values t ~setups:!setups)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name values in
        (name, unit, if Float.is_nan v then 0.0 else v))
      catalogue
  in
  (t.attempted, t.failed, metrics)
