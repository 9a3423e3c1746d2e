(* ooc_grant: the out-of-core generate -> strong-minimize pipeline on
   the grant tandem (m * 10^n states, quotient 10^n). Exploration runs
   through Explore.run_ooc straight into an Mvb.Stream writer with a
   hot seen-set far below the state count, so it spills; minimization
   is Flow.Run.minimize_mvb (mmap CSR, Refine over Arr scratch). The
   MVL interpreter is bypassed; peak RSS is the point of this path. *)

open Mv_core
module Json = Harness.Json
module Mvb = Mv_store.Mvb
module Obs = Mv_obs.Obs

let counter name = Obs.counter_value (Obs.counter name)

let setup ~size ~seed ~dir =
  (* the hot seen-set holds a fraction of the states: spilling is forced *)
  let n, m, hot_budget_bytes =
    match size with
    | Harness.Full -> (4, 7, 1024 * 1024)
    | Harness.Smoke -> (3, 5, 64 * 1024)
  in
  let grant = Models.grant ~seed ~n ~m in
  let scratch = Filename.concat dir "scratch" in
  Unix.mkdir scratch 0o755;
  let src = Filename.concat dir "grant.mvb" and dst = Filename.concat dir "grant_min.mvb" in
  let config = { Flow.Config.default with scratch_dir = Some scratch } in
  let generate () =
    let w = Mvb.Stream.create src in
    match
      Models.Grant_explore.run_ooc ~max_states:(grant.states + 1) ~expect:grant.states
        ~hot_budget_bytes ~scratch_dir:scratch ~labels:(Mvb.Stream.labels w)
        ~emit:(fun moves -> Span.accumulate "store.mvb" (fun () -> Mvb.Stream.add_state w moves))
        ~initial:grant.initial ~successors:grant.successors ()
    with
    | outcome ->
      Span.with_ "store.mvb" (fun () -> Mvb.Stream.finish w ~initial:0);
      outcome
    | exception e ->
      Mvb.Stream.abort w;
      raise e
  in
  let pass ~traced =
    let outcome = Span.with_ "lts.explore_ooc" generate in
    let quotient =
      Span.with_ "flow.minimize_ooc" (fun () ->
          Flow.Run.minimize_mvb config Flow.Strong ~src ~dst)
    in
    let layers =
      if not traced then []
      else
        let spans = Span.all () in
        let explore_s = Span.total_self_s spans "lts.explore_ooc" in
        let negatives = float (counter "ooc.bloom_negatives") in
        let cold = float (counter "ooc.cold_lookups") in
        [
          ("lts.explore_ooc.s", explore_s);
          ("lts.explore_ooc.states_per_s", float outcome.Mv_lts.Explore.ooc_states /. explore_s);
          ("lts.explore_ooc.spill_runs", float (counter "ooc.spill_runs"));
          ("lts.explore_ooc.spilled_mb", float (counter "ooc.spilled_bytes") /. 1e6);
          ("lts.explore_ooc.cold_lookups", cold);
          ("lts.explore_ooc.bloom_negative_ratio", negatives /. (negatives +. cold));
          ("store.mvb.write_s", Span.total_s spans "store.mvb");
          ("store.mvb.bytes", float (Unix.stat src).Unix.st_size);
        ]
    in
    {
      Harness.latencies = [];
      attempted = 2;
      failed = 0;
      answers =
        [
          ("states", Json.Int outcome.Mv_lts.Explore.ooc_states);
          ("transitions", Json.Int outcome.Mv_lts.Explore.ooc_transitions);
          ("quotient_states", Json.Int (Mv_lts.Lts.nb_states quotient));
          ("quotient_transitions", Json.Int (Mv_lts.Lts.nb_transitions quotient));
          ("quotient_md5", Json.String (Digest.to_hex (Digest.file dst)));
        ];
      layers;
    }
  in
  (* The flow gives the CSR build and the refinement no entry of their
     own, so a traced pass is followed by a probe that repeats
     minimize_mvb's calls into them on the same file; the rest of the
     minimize call is its self time. *)
  let probe () =
    let seg = Mvb.Segment.openfile src in
    let n = Mvb.Segment.nb_states seg and m = Mvb.Segment.nb_transitions seg in
    let mode = Mv_kern.Csr.Scratch scratch in
    let iter f = Mvb.Segment.iter_all seg f in
    let mmap0 = counter "kern.mmap_bytes" in
    let fwd, rev =
      Span.with_ "kern.csr" (fun () ->
          let fwd = Mv_kern.Csr.forward_iter ~mode ~n ~m iter in
          (fwd, Mv_kern.Csr.reverse_iter ~mode ~n ~m iter))
    in
    let mmap = counter "kern.mmap_bytes" - mmap0 in
    let splitters0 = counter "kern.splitters" in
    let _, blocks =
      Span.with_ "kern.refine" (fun () ->
          Mv_kern.Refine.strong ~pool:None
            ~nb_labels:(Mv_lts.Label.count (Mvb.Segment.labels seg))
            ~fwd ~rev)
    in
    let spans = Span.all () in
    let csr_s = Span.total_s spans "kern.csr" and refine_s = Span.total_s spans "kern.refine" in
    [
      ("kern.csr.s", csr_s);
      ("kern.csr.mmap_mb", float mmap /. 1e6);
      ("kern.refine.s", refine_s);
      ("kern.refine.splitters", float (counter "kern.splitters" - splitters0));
      ("kern.refine.blocks", float blocks);
      ("flow.minimize_ooc.self_s", Span.total_s spans "flow.minimize_ooc" -. csr_s -. refine_s);
    ]
  in
  let finish ~traced =
    let probed = if traced then probe () else [] in
    List.iter Sys.remove [ src; dst ];
    (probed, 0)
  in
  {
    Harness.pass;
    finish;
    orphans = (fun () -> Harness.files dir);
    close = (fun () -> Harness.remove_tree dir);
  }

let workload = { Harness.name = "ooc_grant"; cores = 1; setup }
