module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Imc = Mv_imc.Imc
module To_ctmc = Mv_imc.To_ctmc
module Ctmc = Mv_markov.Ctmc
module Obs = Mv_obs.Obs
module Cache = Mv_store.Cache

let model_of_text text = Mv_calc.Parser.spec_of_string_checked text

type equivalence = Strong | Branching | Divbranching | Weak | Traces

let equivalence_name = function
  | Strong -> "strong"
  | Branching -> "branching"
  | Divbranching -> "divbranching"
  | Weak -> "weak"
  | Traces -> "traces"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

module Config = struct
  type t = {
    pool : Mv_par.Pool.t option;
    max_states : int option;
    hide : string list;
    keep : string list;
    scheduler : To_ctmc.scheduler;
    cache : Cache.t option;
    solve_method : Mv_kern.Solver.method_ option;
    budget : Budget.t option;
    mem_budget_mb : int option;
    scratch_dir : string option;
    expect : int option;
    compose_plan : Mv_compose.Net.plan;
  }

  let default =
    {
      pool = None;
      max_states = None;
      hide = [];
      keep = [];
      scheduler = To_ctmc.Uniform;
      cache = None;
      solve_method = None;
      budget = None;
      mem_budget_mb = None;
      scratch_dir = None;
      expect = None;
      compose_plan = `Naive;
    }

  let with_pool pool t = { t with pool }
  let with_solve_method solve_method t = { t with solve_method }
  let with_max_states max_states t = { t with max_states = Some max_states }
  let with_hide hide t = { t with hide }
  let with_keep keep t = { t with keep }
  let with_scheduler scheduler t = { t with scheduler }
  let with_cache cache t = { t with cache }
  let with_budget budget t = { t with budget }
  let with_mem_budget_mb mem_budget_mb t = { t with mem_budget_mb }
  let with_scratch_dir scratch_dir t = { t with scratch_dir }
  let with_expect expect t = { t with expect }
  let with_compose_plan compose_plan t = { t with compose_plan }
end

(* Budget checkpoints: [budget_tick] at step boundaries (wall-time),
   [budget_states] wherever a state count is known, and [budget_probe]
   threaded into the explorer as its cooperative tick. All no-ops
   without a budget. *)
let budget_tick (config : Config.t) =
  match config.budget with Some b -> Budget.tick b | None -> ()

let budget_states (config : Config.t) n =
  match config.budget with Some b -> Budget.check b ~states:n | None -> ()

let budget_probe (config : Config.t) =
  match config.budget with
  | Some b -> Some (fun ~states -> Budget.check b ~states)
  | None -> None

(* Memoize an LTS-producing operation through the config's cache, if
   any. The pool is deliberately absent from the key: every parallel
   engine produces results identical to the sequential one. *)
let memo (config : Config.t) ~op ~params ~source compute =
  match config.cache with
  | None -> compute ()
  | Some cache -> Cache.memoize_lts cache ~op ~params source compute

let max_states_param (config : Config.t) =
  ( "max_states",
    match config.max_states with
    | Some n -> string_of_int n
    | None -> "default" )

(* ------------------------------------------------------------------ *)
(* Result types                                                        *)

type property_result = {
  property_name : string;
  formula : Mv_mcl.Formula.t;
  holds : bool;
}

type verification = {
  lts : Lts.t;
  minimized : Lts.t;
  deadlock_states : int list;
  results : property_result list;
}

type performance = {
  imc : Imc.t;
  lumped : Imc.t;
  conversion : To_ctmc.result;
  steady : (float array * Mv_markov.Solver_stats.t) Lazy.t;
}

module Run = struct
  let generate (config : Config.t) spec =
    Obs.span "flow.generate" @@ fun () ->
    budget_tick config;
    let lts =
      memo config ~op:"generate"
        ~params:[ max_states_param config ]
        ~source:(Mv_calc.Ast.spec_to_string spec)
        (fun () ->
          Mv_calc.State_space.lts ?tick:(budget_probe config)
            ?max_states:config.max_states ?expect:config.expect spec)
    in
    (* The explorer ticks at a coarse stride, so re-check the final
       count — outside the memo, so an over-budget state space is
       reported even when it comes from the cache (and a cold
       over-budget result is still stored for future unbudgeted
       callers). *)
    budget_states config (Lts.nb_states lts);
    lts

  (* Split the top-level parallel/hide skeleton of the initial
     behaviour into a composition network; everything below any other
     construct is generated as one leaf. *)
  let generate_compositional (config : Config.t) spec =
    let max_states = config.max_states in
    (* every step is bounded like a monolithic exploration *)
    let check ~states =
      budget_states config states;
      match max_states with
      | Some bound when states > bound ->
        raise (Mv_lts.Explore.Too_many_states bound)
      | Some _ | None -> ()
    in
    let evaluate () =
      let leaf_counter = ref 0 in
      let rec decompose (behavior : Mv_calc.Ast.behavior) =
        match behavior with
        | Mv_calc.Ast.At (_, inner) -> decompose inner
        | Mv_calc.Ast.Par (Mv_calc.Ast.Gates gates, a, b) ->
          Mv_compose.Net.Par (gates, decompose a, decompose b)
        | Mv_calc.Ast.Hide (gates, inner) ->
          Mv_compose.Net.Hide (gates, decompose inner)
        | Mv_calc.Ast.Stop | Mv_calc.Ast.Exit _ | Mv_calc.Ast.Prefix _
        | Mv_calc.Ast.Rate _ | Mv_calc.Ast.Choice _ | Mv_calc.Ast.Guard _
        | Mv_calc.Ast.Par (Mv_calc.Ast.All, _, _) | Mv_calc.Ast.Rename _
        | Mv_calc.Ast.Seq _ | Mv_calc.Ast.Call _ ->
          incr leaf_counter;
          let name = Printf.sprintf "component%d" !leaf_counter in
          Mv_compose.Net.Leaf
            ( name,
              Mv_calc.State_space.lts ?tick:(budget_probe config) ?max_states
                { spec with Mv_calc.Ast.init = behavior } )
      in
      Mv_compose.Net.evaluate ~plan:config.compose_plan ~tick:check
        ~strategy:`Compositional
        (decompose spec.Mv_calc.Ast.init)
    in
    match config.cache with
    | None -> evaluate ()
    | Some cache -> (
        (* Only the final LTS is cached; on a hit the per-node steps of
           the original evaluation are gone, so the report carries a
           single synthetic step and a conservative peak. *)
        (* the plan changes the (equivalent but not identical)
           intermediate numbering, so it keys the cached artifact *)
        let params =
          [
            max_states_param config;
            ( "plan",
              match config.compose_plan with
              | `Naive -> "naive"
              | `Greedy -> "greedy" );
          ]
        in
        let source = Mv_calc.Ast.spec_to_string spec in
        match
          Cache.find_lts cache ~op:"generate_compositional" ~params source
        with
        | Some result ->
          (* a cached product is checked like a composed one *)
          check ~states:(Lts.nb_states result);
          {
            Mv_compose.Net.result;
            steps =
              [
                {
                  Mv_compose.Net.description = "composition (cache hit)";
                  states = Lts.nb_states result;
                  transitions = Lts.nb_transitions result;
                };
              ];
            peak_states = Lts.nb_states result;
          }
        | None ->
          let report = evaluate () in
          Cache.store_lts cache ~op:"generate_compositional" ~params source
            report.Mv_compose.Net.result;
          report)

  (* ---------------- out-of-core pipeline ------------------------- *)

  (* Streaming generation: explore with the spillable seen set and
     write the .mvb directly, never materializing the LTS. The file is
     byte-identical to [Mvb.write_file] of [generate]'s result. *)
  let generate_mvb (config : Config.t) spec ~out =
    Obs.span "flow.generate_ooc" @@ fun () ->
    budget_tick config;
    let scratch_dir =
      match config.scratch_dir with
      | Some d -> d
      | None -> Filename.dirname out
    in
    (* the hot seen-set gets half the memory budget; the other half
       covers the bloom bits, the current BFS level and the program *)
    let hot_budget_bytes =
      Option.map (fun mb -> max (1 lsl 16) (mb * 1024 * 1024 / 2))
        config.mem_budget_mb
    in
    let writer = Mv_store.Mvb.Stream.create out in
    match
      Mv_calc.State_space.generate_ooc ?tick:(budget_probe config)
        ?max_states:config.max_states ?expect:config.expect
        ?hot_budget_bytes ~scratch_dir
        ~labels:(Mv_store.Mvb.Stream.labels writer)
        ~emit:(Mv_store.Mvb.Stream.add_state writer)
        spec
    with
    | outcome ->
      Mv_store.Mvb.Stream.finish writer ~initial:0;
      budget_states config outcome.Mv_lts.Explore.ooc_states;
      outcome
    | exception exn ->
      Mv_store.Mvb.Stream.abort writer;
      raise exn

  (* Out-of-core strong minimization: Strong's one minimizer replays
     the transitions through an mmap'd segment reader and keeps its
     reverse CSR in mmap scratch, so neither the transitions nor their
     index are held on the heap. The output file is byte-identical to
     minimizing the materialized LTS. *)
  let minimize_mvb (config : Config.t) equivalence ~src ~dst =
    (match equivalence with
     | Strong -> ()
     | _ ->
       invalid_arg
         (Printf.sprintf "out-of-core minimization supports strong only, not %s"
            (equivalence_name equivalence)));
    Obs.span "flow.minimize_ooc" @@ fun () ->
    budget_tick config;
    let module Segment = Mv_store.Mvb.Segment in
    let seg = Segment.openfile src in
    budget_states config (Segment.nb_states seg);
    let scratch =
      match config.scratch_dir with
      | Some d -> d
      | None -> Filename.dirname dst
    in
    let minimized =
      Mv_bisim.Strong.minimize_sweep ~mode:(Mv_kern.Csr.Scratch scratch)
        ~nb_states:(Segment.nb_states seg)
        ~nb_transitions:(Segment.nb_transitions seg)
        ~initial:(Segment.initial seg) ~labels:(Segment.labels seg)
        (Segment.iter_all seg)
    in
    Mv_store.Mvb.write_file dst minimized;
    minimized

  let minimize_uncached (config : Config.t) equivalence lts =
    let pool = config.pool in
    match equivalence with
    | Strong -> Mv_bisim.Strong.minimize lts
    | Branching -> Mv_bisim.Branching.minimize ?pool lts
    | Divbranching ->
      Mv_bisim.Branching.minimize ?pool ~divergence_sensitive:true lts
    | Weak -> Mv_bisim.Weak.minimize lts
    | Traces -> Mv_bisim.Traces.determinize lts

  let minimize (config : Config.t) equivalence lts =
    budget_tick config;
    memo config ~op:"minimize"
      ~params:[ ("equivalence", equivalence_name equivalence) ]
      ~source:(Mv_store.Mvb.to_string lts)
      (fun () ->
        budget_states config (Lts.nb_states lts);
        minimize_uncached config equivalence lts)

  let equivalent (config : Config.t) equivalence a b =
    budget_tick config;
    budget_states config (Lts.nb_states a + Lts.nb_states b);
    let pool = config.pool in
    match equivalence with
    | Strong -> Mv_bisim.Strong.equivalent a b
    | Branching -> Mv_bisim.Branching.equivalent ?pool a b
    | Divbranching ->
      Mv_bisim.Branching.equivalent ?pool ~divergence_sensitive:true a b
    | Weak -> Mv_bisim.Weak.equivalent a b
    | Traces -> Mv_bisim.Traces.equivalent a b

  let verify (config : Config.t) spec properties =
    let lts = generate config spec in
    let abstracted =
      if config.hide = [] then lts else Lts.hide lts ~gates:config.hide
    in
    let minimized = minimize config Branching abstracted in
    budget_tick config;
    let results =
      List.map
        (fun (property_name, formula) ->
           { property_name; formula; holds = Mv_mcl.Eval.holds lts formula })
        properties
    in
    { lts; minimized; deadlock_states = Lts.deadlocks lts; results }

  (* The lumping quotient is the expensive step of the performance
     pipeline, so it goes through the cache as well; the IMC crosses
     the cache as an exact-rate LTS encoding (hex floats survive the
     round-trip bit-for-bit). *)
  let lump (config : Config.t) progressed =
    budget_tick config;
    match config.cache with
    | None -> Obs.span "flow.lump" (fun () -> Mv_imc.Lump.minimize progressed)
    | Some cache -> (
        Obs.span "flow.lump" @@ fun () ->
        let source = Mv_store.Mvb.to_string (Imc.to_lts ~exact:true progressed) in
        match Cache.find_lts cache ~op:"lump" source with
        | Some lts -> Imc.of_lts lts
        | None ->
          let lumped = Mv_imc.Lump.minimize progressed in
          Cache.store_lts cache ~op:"lump" source (Imc.to_lts ~exact:true lumped);
          lumped)

  let performance_of_imc (config : Config.t) imc =
    let keep = config.keep in
    let visible_kept name = List.mem (Label.gate name) keep in
    let hidden =
      (* hide every gate not in [keep] *)
      let labels = Imc.labels imc in
      let gates = ref [] in
      for l = 1 to Label.count labels - 1 do
        let gate = Label.gate (Label.name labels l) in
        if
          (not (visible_kept (Label.name labels l)))
          && not (List.mem gate !gates)
        then gates := gate :: !gates
      done;
      Imc.hide imc ~gates:!gates
    in
    let progressed = Imc.maximal_progress hidden in
    let lumped = lump config progressed in
    let conversion =
      Obs.span "flow.to_ctmc" (fun () ->
          To_ctmc.convert ~scheduler:config.scheduler lumped)
    in
    {
      imc;
      lumped;
      conversion;
      steady =
        lazy
          (Obs.span "flow.solve" (fun () ->
               budget_tick config;
               Ctmc.steady_state_stats ?method_:config.solve_method
                 conversion.To_ctmc.ctmc));
    }

  let performance (config : Config.t) spec =
    let lts = generate config spec in
    performance_of_imc config (Imc.of_lts lts)
end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let all_hold v = List.for_all (fun r -> r.holds) v.results

let deadlock_witness v = Mv_lts.Trace.shortest_to_deadlock v.lts

let action_witness v ~gate =
  Mv_lts.Trace.shortest_to_action v.lts ~action:(fun name ->
      Label.gate name = gate)

let steady_vector perf = fst (Lazy.force perf.steady)
let solver_stats perf = snd (Lazy.force perf.steady)

let throughput perf ~gate =
  let pi = steady_vector perf in
  let ctmc = perf.conversion.To_ctmc.ctmc in
  List.fold_left
    (fun acc (action, value) ->
       if Label.gate action = gate then acc +. value else acc)
    0.0
    (Ctmc.throughputs ctmc ~pi)

let throughputs perf =
  let pi = steady_vector perf in
  Ctmc.throughputs perf.conversion.To_ctmc.ctmc ~pi

(* Redirect every transition tagged with an action on [gate] to a
   fresh absorbing state; first-passage to it is the time to the first
   occurrence of the action. *)
let first_action_ctmc ctmc ~gate =
  let n = Ctmc.nb_states ctmc in
  let absorbing = n in
  let transitions = ref [] in
  Ctmc.iter_transitions ctmc (fun tr ->
      let tagged =
        List.exists (fun a -> Label.gate a = gate) tr.Ctmc.actions
      in
      let tr = if tagged then { tr with Ctmc.dst = absorbing } else tr in
      transitions := tr :: !transitions);
  let redirected =
    Ctmc.make ~nb_states:(n + 1) ~initial:(Ctmc.initial ctmc) !transitions
  in
  (redirected, absorbing)

let time_to_first perf ~gate =
  let redirected, absorbing =
    first_action_ctmc perf.conversion.To_ctmc.ctmc ~gate
  in
  Ctmc.mean_first_passage redirected ~targets:[ absorbing ]

let probability_by perf ~gate ~horizon =
  let redirected, absorbing =
    first_action_ctmc perf.conversion.To_ctmc.ctmc ~gate
  in
  Ctmc.reach_probability_by redirected ~targets:[ absorbing ] ~horizon

let expected_reward perf reward =
  let pi = steady_vector perf in
  Ctmc.expected_reward perf.conversion.To_ctmc.ctmc ~pi reward
