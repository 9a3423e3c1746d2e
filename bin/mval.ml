(* mval: command-line driver for the Multival flow (a CADP-workalike).

   mval generate  model.mvl -o model.aut     state-space generation
   mval minimize  model.aut -e branching     bisimulation minimization
   mval compare   a.aut b.aut -e strong      equivalence check
   mval check     model.mvl -f "<formula>"   mu-calculus model checking
   mval solve     model.mvl -k pop           performance measures
   mval lint      model.mvl                  static analysis
   mval info      model.(mvl|aut|mvb)        model statistics
   mval cache     stats|gc|clear             artifact-cache maintenance *)

module Lts = Mv_lts.Lts
module Aut = Mv_lts.Aut
module Mvb = Mv_store.Mvb
module Cache = Mv_store.Cache
module Flow = Mv_core.Flow
module Budget = Mv_core.Budget
module Json = Mv_obs.Json
module Obs = Mv_obs.Obs
module Log = Mv_obs.Log
module Ops = Mv_serve.Ops
module Proto = Mv_serve.Proto
module Client = Mv_serve.Client

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Load an LTS from an .aut or .mvb file, or by generating an MVL
   model (memoized through the cache when one is given). *)
let load_lts ?max_states ?cache ?budget ?expect path =
  if Filename.check_suffix path ".aut" then Aut.of_string (read_file path)
  else if Filename.check_suffix path ".mvb" then Mvb.read_file path
  else
    Flow.Run.generate
      { Flow.Config.default with max_states; cache; budget; expect }
      (Flow.model_of_text (read_file path))

(* Run [f] with the pool requested by -j: none for -j 1 (fully
   sequential), one worker domain per core for -j 0. Every command
   produces the same output whatever the pool size. *)
let with_jobs jobs f =
  if jobs = 1 then f None
  else
    let domains = if jobs = 0 then Mv_par.Pool.auto () else jobs in
    let pool = Mv_par.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Mv_par.Pool.shutdown pool)
      (fun () -> f (Some pool))

let write_lts output lts =
  match output with
  | None -> print_string (Aut.to_string lts)
  | Some path ->
    if Filename.check_suffix path ".mvb" then Mvb.write_file path lts
    else Aut.write_file path lts;
    Printf.printf "wrote %s (%d states, %d transitions)\n" path
      (Lts.nb_states lts) (Lts.nb_transitions lts)

(* One error table for the whole flow (Ops.classify is also what the
   daemon uses to build structured errors, so a budget or state-bound
   violation prints the same message and exit code locally and under
   --remote). *)
let handle_errors f =
  try f ()
  with exn -> (
    match Ops.classify exn with
    | Some (_, message, code) ->
      prerr_endline message;
      exit code
    | None -> raise exn)

(* Rendered command output (from the shared renderers in Mv_serve.Ops,
   or shipped back by a daemon): print it and adopt its exit code. *)
let print_texts (t : Ops.texts) =
  print_string t.Ops.out;
  prerr_string t.Ops.err;
  if t.Ops.code <> 0 then exit t.Ops.code

(* ---- remote execution (mval --remote ADDR) ---- *)

(* One request id per process (the --request-id choice, or a fresh one
   minted at the first remote call): the client-side span, the
   daemon-side spans and metrics, and the structured log events of a
   run all carry the same id, so the two halves of a --remote run can
   be correlated — and, under --trace, merged into a single Chrome
   trace. Span collection is requested exactly when --trace is on. *)
let remote_request_id = ref None
let remote_collect_spans = ref false

let current_request_id () =
  match !remote_request_id with
  | Some rid -> rid
  | None ->
    let rid = Proto.fresh_request_id () in
    remote_request_id := Some rid;
    rid

let remote_call addr_text ~op ?budget args =
  match Proto.addr_of_string addr_text with
  | Error msg ->
    prerr_endline ("bad --remote address: " ^ msg);
    exit 2
  | Ok addr -> (
    let rid = current_request_id () in
    let trace =
      { Proto.request_id = rid; collect_spans = !remote_collect_spans }
    in
    try
      Obs.with_request rid (fun () ->
          Obs.span "remote.call"
            ~args:[ ("op", Json.String op) ]
            (fun () ->
               Client.with_connection addr (fun c ->
                   let response = Client.call c ~op ?budget ~trace args in
                   (* daemon-side spans land in the local registry
                      under the remote trace lane (pid 2); the at_exit
                      --trace writer then emits one merged trace *)
                   (match response.Proto.trace with
                    | Some spans -> Obs.ingest_spans spans
                    | None -> ());
                   response)))
    with Client.Error msg ->
      prerr_endline ("remote: " ^ msg);
      exit 70)

let remote_result (response : Proto.response) =
  match response.Proto.outcome with
  | Ok result -> result
  | Error { Proto.kind; message } ->
    prerr_endline message;
    exit (Ops.exit_code_of_kind kind)

let finish_remote response = print_texts (Ops.texts_of_json (remote_result response))

(* A model file as a protocol payload: MVL sources travel as text and
   are generated daemon-side (hitting its cache); .aut travels
   verbatim; .mvb is converted to .aut text (the wire format is JSON,
   not binary) — the round-trip is exact. *)
let model_payload path =
  let kind, text =
    if Filename.check_suffix path ".aut" then ("aut", read_file path)
    else if Filename.check_suffix path ".mvb" then
      ("aut", Aut.to_string (Mvb.read_file path))
    else ("mvl", read_file path)
  in
  Json.Obj [ ("kind", Json.String kind); ("text", Json.String text) ]

(* The daemon answers generate/minimize with the .aut artifact text;
   writing it back through the same Aut/Mvb writers a local run uses
   keeps the on-disk result byte-identical. *)
let remote_write_lts output result =
  match Json.member "artifact" result with
  | Some (Json.String artifact) -> (
    match output with
    | None -> print_string artifact
    | Some path ->
      let lts = Aut.of_string artifact in
      if Filename.check_suffix path ".mvb" then Mvb.write_file path lts
      else Aut.write_file path lts;
      Printf.printf "wrote %s (%d states, %d transitions)\n" path
        (Lts.nb_states lts) (Lts.nb_transitions lts))
  | _ ->
    prerr_endline "remote: malformed response (missing artifact)";
    exit 70

let int_result name result =
  match Json.member name result with
  | Some (Json.Int n) -> n
  | _ ->
    prerr_endline (Printf.sprintf "remote: malformed response (missing %s)" name);
    exit 70

module Lint = Mv_lint.Lint
module Diagnostic = Mv_lint.Diagnostic

(* Pre-flight lint of the .mvl sources a command is about to explore.
   Warnings are reported but do not block; lint errors abort (they
   would fail during exploration anyway, only later and with less
   context). --no-lint skips the pass entirely. *)
let lint_gate ~no_lint paths =
  if not no_lint then
    List.iter
      (fun path ->
         if Filename.check_suffix path ".mvl" then begin
           let ds = Lint.check_text (read_file path) in
           List.iter
             (fun d -> prerr_endline (Diagnostic.render ~file:path d))
             ds;
           if Lint.has_errors ds then begin
             prerr_endline
               (Printf.sprintf
                  "%s: lint found errors (use --no-lint to bypass)" path);
             exit 2
           end
         end)
      paths

(* Telemetry wiring shared by the flow commands. The exporters run
   from [at_exit] because several commands terminate via [exit]
   mid-run (compare/check/script encode their verdict in the exit
   code); registering the writer up front guarantees the files appear
   whenever the flags were given, whatever the exit path. *)
let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Mv_obs.Json.to_string json))

let setup_obs metrics trace progress log_json request_id =
  if metrics <> None || trace <> None then Obs.enable ();
  if trace <> None then remote_collect_spans := true;
  if log_json then Log.set_sink (Some Log.stderr_sink);
  (match request_id with
   | Some rid ->
     remote_request_id := Some rid;
     Obs.set_request (Some rid)
   | None -> ());
  if progress then Obs.set_progress true;
  if metrics <> None || trace <> None || progress then
    Stdlib.at_exit (fun () ->
        Obs.progress_end ();
        (match metrics with
         | Some path -> write_json path (Obs.metrics_json ())
         | None -> ());
        (match trace with
         | Some path -> write_json path (Obs.trace_json ())
         | None -> ());
        if metrics <> None || trace <> None then
          Mv_core.Report.headline ~title:"telemetry" (Obs.headlines ()))

open Cmdliner

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record counters, histograms, convergence series and phase \
           timings, and write them to $(docv) as JSON on exit (schema \
           $(b,mv-obs-metrics-v1); see doc/observability.md).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file of the flow's spans to \
           $(docv) on exit (load it in chrome://tracing or \
           ui.perfetto.dev).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Repaint a live status line on stderr while exploring, \
           refining, solving and simulating.")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:
          "Stream every structured log event to stderr as one JSON \
           line (schema $(b,mv-log-v1); see doc/observability.md) as \
           it happens.")

let request_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "request-id" ] ~docv:"ID"
        ~doc:
          "Tag this run's telemetry — spans, log events, and \
           $(b,--remote) requests — with $(docv) instead of a \
           generated id, so client- and daemon-side records \
           correlate.")

let obs_term =
  Term.(
    const setup_obs $ metrics_arg $ trace_arg $ progress_arg $ log_json_arg
    $ request_id_arg)

let model_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MODEL"
        ~doc:"MVL model (.mvl), Aldebaran LTS (.aut) or binary LTS (.mvb).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Output file, .aut or .mvb by extension (default: .aut on stdout).")

let max_states_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "max-states" ] ~docv:"N" ~doc:"State-space generation bound.")

let equivalence_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("strong", Flow.Strong); ("branching", Flow.Branching);
             ("divbranching", Flow.Divbranching); ("weak", Flow.Weak);
             ("traces", Flow.Traces) ])
        Flow.Branching
    & info [ "e"; "equivalence" ] ~docv:"EQ"
        ~doc:"Equivalence: $(b,strong), $(b,branching), \
              $(b,divbranching) (divergence-sensitive), $(b,weak) or \
              $(b,traces).")

let hide_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "hide" ] ~docv:"GATES" ~doc:"Comma-separated gates to hide first.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (branching \
           refinement and simulation replications; generation, strong \
           and weak refinement and solving are sequential): $(b,1) is \
           fully sequential (default), $(b,0) uses one domain per \
           core. The output is identical for every N.")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ]
        ~doc:
          "Skip the static-analysis pass that normally runs on MVL \
           sources before exploration (see $(b,mval lint)).")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "MVAL_CACHE")
        ~doc:
          "Content-addressed artifact cache directory (created if \
           missing). Generation, reduction and lumping results are \
           memoized there and reused across runs; maintain it with \
           $(b,mval cache). See doc/store.md.")

let open_cache = Option.map (fun dir -> Cache.open_dir dir)

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"ADDR"
        ~env:(Cmd.Env.info "MVAL_REMOTE")
        ~doc:
          "Execute on a running $(b,mvald) daemon at $(docv) \
           ($(b,unix:PATH), $(b,tcp:HOST:PORT) or a plain socket path) \
           instead of locally. The output is byte-identical to a local \
           run; warm requests are answered from the daemon's shared \
           cache.")

let budget_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-states" ] ~docv:"N"
        ~doc:
          "Abort (exit 5) as soon as any exploration discovers more \
           than $(docv) states. Unlike $(b,--max-states) this is a \
           request budget, checked at every flow step; under \
           $(b,--remote) it is enforced by the daemon.")

let budget_wall_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-wall" ] ~docv:"SECONDS"
        ~doc:
          "Abort (exit 5) once the command has run for more than \
           $(docv) seconds of wall time (checked cooperatively at flow \
           steps, so slightly more work than the budget may happen). \
           Under $(b,--remote) the daemon enforces it per request.")

let budget_term =
  Term.(
    const (fun states wall -> (states, wall))
    $ budget_states_arg $ budget_wall_arg)

let budget_spec (states, wall) =
  if states = None && wall = None then None
  else Some { Proto.max_states = states; wall_s = wall }

let local_budget (states, wall) =
  if states = None && wall = None then None
  else Some (Budget.create ?max_states:states ?wall_s:wall ())

let strings_json items = Json.List (List.map (fun s -> Json.String s) items)

(* ---- out-of-core / planning options ---- *)

let ooc_arg =
  Arg.(
    value & flag
    & info [ "out-of-core" ]
        ~doc:
          "Bounded-RAM pipeline over .mvb files: $(b,generate) streams \
           transitions to the output during exploration (the seen set \
           spills to sorted runs on disk past the memory budget) and \
           $(b,minimize) refines over the mmap'd input without loading \
           it. Requires .mvb paths ($(b,-o) for generate; input and \
           $(b,-o) for minimize). The bytes produced are identical to \
           the in-RAM pipeline's.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget" ] ~docv:"MB"
        ~doc:
          "RAM target in MiB for $(b,--out-of-core): half funds the \
           hot (in-RAM) part of the seen set, the rest covers the \
           bloom filter and the current frontier (default: 64 MiB \
           hot).")

let scratch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scratch-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for $(b,--out-of-core) spill runs and mmap \
           scratch (default: the output file's directory). Scratch is \
           removed on exit, also on failure.")

let expect_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "expect" ] ~docv:"N"
        ~doc:
          "Anticipated reachable-state count: pre-sizes the \
           exploration tables (and the out-of-core bloom filter) so \
           large runs skip rehash churn. A hint — never changes any \
           result.")

let compositional_arg =
  Arg.(
    value & flag
    & info [ "compositional" ]
        ~doc:
          "Split the model's top-level parallel composition, generate \
           each component separately, minimize before composing, and \
           combine in a planned order ($(b,--plan)). The result is \
           branching-equivalent to direct generation; the peak \
           intermediate size can be exponentially smaller.")

let plan_arg =
  Arg.(
    value
    & opt (enum [ ("naive", `Naive); ("greedy", `Greedy) ]) `Greedy
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Composition order for $(b,--compositional): $(b,naive) \
           composes components left to right, $(b,greedy) (default) \
           repeatedly composes the pair with the smallest estimated \
           product (state counts scaled down by shared \
           synchronization gates).")

(* ---- generate ---- *)

let generate_cmd =
  let run () model output max_states hide no_lint cache remote budget ooc
      mem_budget scratch expect compositional plan =
    handle_errors (fun () ->
        lint_gate ~no_lint [ model ];
        match remote with
        | Some addr ->
          let result =
            remote_result
              (remote_call addr ~op:"generate" ?budget:(budget_spec budget)
                 (Json.Obj
                    [
                      ("model", model_payload model);
                      ("max_states", Json.Int max_states);
                      ("hide", strings_json hide);
                    ]))
          in
          remote_write_lts output result
        | None ->
          let cache = open_cache cache in
          let config =
            { Flow.Config.default with
              max_states = Some max_states;
              cache;
              budget = local_budget budget;
              mem_budget_mb = mem_budget;
              scratch_dir = scratch;
              expect;
              compose_plan = plan;
            }
          in
          if ooc then begin
            let out =
              match output with
              | Some path when Filename.check_suffix path ".mvb" -> path
              | _ ->
                prerr_endline "--out-of-core needs -o FILE.mvb";
                exit 2
            in
            if hide <> [] || compositional then begin
              prerr_endline
                "--out-of-core generation streams the plain state \
                 space; it cannot be combined with --hide or \
                 --compositional";
              exit 2
            end;
            let spec = Flow.model_of_text (read_file model) in
            let o = Flow.Run.generate_mvb config spec ~out in
            Printf.printf "wrote %s (%d states, %d transitions)\n" out
              o.Mv_lts.Explore.ooc_states o.Mv_lts.Explore.ooc_transitions
          end
          else if compositional then begin
            let spec = Flow.model_of_text (read_file model) in
            let report = Flow.Run.generate_compositional config spec in
            Printf.eprintf "compositional: %d steps, peak %d states\n"
              (List.length report.Mv_compose.Net.steps)
              report.Mv_compose.Net.peak_states;
            let lts = report.Mv_compose.Net.result in
            let lts = if hide = [] then lts else Lts.hide lts ~gates:hide in
            write_lts output lts
          end
          else
            let lts =
              load_lts ~max_states ?cache ?budget:(local_budget budget)
                ?expect model
            in
            let lts = if hide = [] then lts else Lts.hide lts ~gates:hide in
            write_lts output lts)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate the state space of an MVL model")
    Term.(
      const run $ obs_term $ model_arg $ output_arg $ max_states_arg $ hide_arg
      $ no_lint_arg $ cache_arg $ remote_arg $ budget_term $ ooc_arg
      $ mem_budget_arg $ scratch_arg $ expect_arg $ compositional_arg
      $ plan_arg)

(* ---- minimize ---- *)

let minimize_cmd =
  let run () model output max_states equivalence hide jobs no_lint cache remote
      budget ooc mem_budget scratch expect =
    handle_errors (fun () ->
        lint_gate ~no_lint [ model ];
        match remote with
        | Some addr ->
          let result =
            remote_result
              (remote_call addr ~op:"minimize" ?budget:(budget_spec budget)
                 (Json.Obj
                    [
                      ("model", model_payload model);
                      ( "equivalence",
                        Json.String (Flow.equivalence_name equivalence) );
                      ("max_states", Json.Int max_states);
                      ("hide", strings_json hide);
                    ]))
          in
          prerr_string
            (Ops.minimize_note
               ~before:(int_result "states_before" result)
               ~after:(int_result "states" result));
          remote_write_lts output result
        | None ->
          let cache = open_cache cache in
          with_jobs jobs (fun pool ->
              let budget = local_budget budget in
              if ooc then begin
                if not (Filename.check_suffix model ".mvb") then begin
                  prerr_endline "--out-of-core minimization reads a .mvb file";
                  exit 2
                end;
                let dst =
                  match output with
                  | Some path when Filename.check_suffix path ".mvb" -> path
                  | _ ->
                    prerr_endline "--out-of-core needs -o FILE.mvb";
                    exit 2
                in
                if hide <> [] then begin
                  prerr_endline "--out-of-core does not support --hide";
                  exit 2
                end;
                let config =
                  { Flow.Config.default with
                    pool;
                    cache;
                    budget;
                    mem_budget_mb = mem_budget;
                    scratch_dir = scratch;
                  }
                in
                let before = (Mvb.stats model).Mvb.s_nb_states in
                let minimized =
                  Flow.Run.minimize_mvb config equivalence ~src:model ~dst
                in
                prerr_string
                  (Ops.minimize_note ~before ~after:(Lts.nb_states minimized));
                Printf.printf "wrote %s (%d states, %d transitions)\n" dst
                  (Lts.nb_states minimized) (Lts.nb_transitions minimized)
              end
              else
                let lts =
                  load_lts ~max_states ?cache ?budget ?expect model
                in
                let lts =
                  if hide = [] then lts else Lts.hide lts ~gates:hide
                in
                let minimized =
                  Flow.Run.minimize
                    { Flow.Config.default with pool; cache; budget }
                    equivalence lts
                in
                prerr_string
                  (Ops.minimize_note ~before:(Lts.nb_states lts)
                     ~after:(Lts.nb_states minimized));
                write_lts output minimized))
  in
  Cmd.v
    (Cmd.info "minimize" ~doc:"Minimize modulo strong or branching bisimulation")
    Term.(
      const run $ obs_term $ model_arg $ output_arg $ max_states_arg
      $ equivalence_arg $ hide_arg $ jobs_arg $ no_lint_arg $ cache_arg
      $ remote_arg $ budget_term $ ooc_arg $ mem_budget_arg $ scratch_arg
      $ expect_arg)

(* ---- compare ---- *)

let compare_cmd =
  let second_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"MODEL2" ~doc:"Second model.")
  in
  let run () a b max_states equivalence jobs cache remote budget =
    handle_errors (fun () ->
        match remote with
        | Some addr ->
          finish_remote
            (remote_call addr ~op:"equivalent" ?budget:(budget_spec budget)
               (Json.Obj
                  [
                    ("a", model_payload a);
                    ("b", model_payload b);
                    ( "equivalence",
                      Json.String (Flow.equivalence_name equivalence) );
                    ("max_states", Json.Int max_states);
                  ]))
        | None ->
          let cache = open_cache cache in
          with_jobs jobs (fun pool ->
              let budget = local_budget budget in
              let la = load_lts ~max_states ?cache ?budget a
              and lb = load_lts ~max_states ?cache ?budget b in
              print_texts
                (Ops.compare_texts
                   { Flow.Config.default with pool; budget }
                   equivalence la lb)))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Check two models for bisimulation equivalence")
    Term.(
      const run $ obs_term $ model_arg $ second_arg $ max_states_arg
      $ equivalence_arg $ jobs_arg $ cache_arg $ remote_arg $ budget_term)

(* ---- check ---- *)

let check_cmd =
  let formulas_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "f"; "formula" ] ~docv:"FORMULA"
          ~doc:"Mu-calculus formula (repeatable). See the mu-calculus grammar \
                in lib/mcl/parser.mli.")
  in
  let deadlock_arg =
    Arg.(value & flag & info [ "deadlock" ] ~doc:"Also check deadlock freedom.")
  in
  let run () model max_states formulas deadlock no_lint remote budget =
    handle_errors (fun () ->
        lint_gate ~no_lint [ model ];
        match remote with
        | Some addr ->
          finish_remote
            (remote_call addr ~op:"check" ?budget:(budget_spec budget)
               (Json.Obj
                  [
                    ("model", model_payload model);
                    ("max_states", Json.Int max_states);
                    ("formulas", strings_json formulas);
                    ("deadlock", Json.Bool deadlock);
                  ]))
        | None ->
          let lts =
            load_lts ~max_states ?budget:(local_budget budget) model
          in
          print_texts (Ops.check_texts ~deadlock ~formulas lts))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Model-check mu-calculus formulas")
    Term.(
      const run $ obs_term $ model_arg $ max_states_arg $ formulas_arg
      $ deadlock_arg $ no_lint_arg $ remote_arg $ budget_term)

(* ---- solve ---- *)

let solve_cmd =
  let keep_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "k"; "keep" ] ~docv:"GATES"
          ~doc:"Gates kept visible for throughput queries (comma-separated).")
  in
  let first_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "time-to-first" ] ~docv:"GATE"
          ~doc:"Also report the mean time to the first occurrence of GATE.")
  in
  let scheduler_arg =
    Arg.(
      value
      & opt (enum [ ("uniform", Mv_imc.To_ctmc.Uniform); ("fail", Mv_imc.To_ctmc.Fail) ])
          Mv_imc.To_ctmc.Uniform
      & info [ "scheduler" ] ~docv:"S"
          ~doc:
            "Resolution of nondeterministic immediate choices: \
             $(b,uniform) (default) or $(b,fail) (reject, as CADP's \
             solvers do).")
  in
  let method_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "method" ] ~docv:"M"
          ~doc:
            "Force the steady-state sweeps: $(b,gs) (sequential \
             Gauss-Seidel in BFS order). By default each BSCC narrow \
             enough in BFS order is solved by a direct banded \
             elimination, and the others by $(b,gs). Both agree within \
             the solver tolerance. It \
             covers the steady-state solves (each BSCC, and the \
             absorption solve of a chain with several), not the \
             passage-time solve of $(b,--time-to-first), which always \
             takes the default.")
  in
  let run () model max_states keep first scheduler method_ no_lint cache remote
      budget =
    handle_errors (fun () ->
        let solve_method =
          match method_ with
          | None -> None
          | Some name -> (
            match Mv_kern.Solver.method_of_name name with
            | Some m -> Some m
            | None ->
              prerr_endline
                (Diagnostic.render
                   {
                     Diagnostic.code = "CLI001";
                     severity = Diagnostic.Error;
                     line = None;
                     message =
                       Printf.sprintf
                         "unknown solve method %S (expected gs or \
                          gauss-seidel)"
                         name;
                   });
              exit 2)
        in
        lint_gate ~no_lint [ model ];
        match remote with
        | Some addr ->
          finish_remote
            (remote_call addr ~op:"solve" ?budget:(budget_spec budget)
               (Json.Obj
                  ([
                     ("model", Json.String (read_file model));
                     ("max_states", Json.Int max_states);
                     ("keep", strings_json keep);
                     ( "scheduler",
                       Json.String
                         (match scheduler with
                          | Mv_imc.To_ctmc.Uniform -> "uniform"
                          | Mv_imc.To_ctmc.Fail -> "fail"
                          (* not constructible from the CLI enum *)
                          | Mv_imc.To_ctmc.Deterministic _ -> assert false) );
                   ]
                   @ (match method_ with
                      | Some m -> [ ("method", Json.String m) ]
                      | None -> [])
                   @
                   match first with
                   | Some gate -> [ ("time_to_first", Json.String gate) ]
                   | None -> [])))
        | None ->
          let cache = open_cache cache in
          let spec = Flow.model_of_text (read_file model) in
          let config =
            {
              Flow.Config.default with
              max_states = Some max_states;
              keep;
              scheduler;
              cache;
              solve_method;
              budget = local_budget budget;
            }
          in
          print_texts (Ops.solve_texts config ~first spec))
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Run the performance pipeline: IMC, lumping, CTMC, throughputs")
    Term.(
      const run $ obs_term $ model_arg $ max_states_arg $ keep_arg $ first_arg
      $ scheduler_arg $ method_arg $ no_lint_arg $ cache_arg $ remote_arg
      $ budget_term)

(* ---- translate ---- *)

let translate_cmd =
  let prefix_arg =
    Arg.(
      value
      & opt string "chp"
      & info [ "prefix" ] ~docv:"PREFIX"
          ~doc:"Name prefix for processes generated from CHP loops.")
  in
  let run model prefix =
    handle_errors (fun () ->
        let spec =
          Mv_chp.Parser.spec_of_string ~prefix (read_file model)
        in
        print_string (Mv_calc.Ast.spec_to_string spec))
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Translate a CHP process (.chp) into MVL concrete syntax")
    Term.(const run $ model_arg $ prefix_arg)

(* ---- trace ---- *)

let trace_cmd =
  let deadlock_arg =
    Arg.(value & flag & info [ "deadlock" ] ~doc:"Witness trace to a deadlock.")
  in
  let action_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "action" ] ~docv:"GATE"
          ~doc:"Witness trace ending in an action on GATE.")
  in
  let run model max_states deadlock action =
    handle_errors (fun () ->
        let lts = load_lts ~max_states model in
        let report kind = function
          | None -> Printf.printf "%-30s unreachable\n" kind
          | Some t ->
            Printf.printf "%-30s %s\n" kind (Mv_lts.Trace.to_string t)
        in
        if not deadlock && action = None then begin
          prerr_endline "nothing to search (use --deadlock or --action)";
          exit 2
        end;
        if deadlock then
          report "shortest deadlock trace:" (Mv_lts.Trace.shortest_to_deadlock lts);
        match action with
        | None -> ()
        | Some gate ->
          report
            (Printf.sprintf "shortest trace to %s:" gate)
            (Mv_lts.Trace.shortest_to_action lts
               ~action:(fun name -> Mv_lts.Label.gate name = gate)))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Exhibit shortest witness traces")
    Term.(const run $ model_arg $ max_states_arg $ deadlock_arg $ action_arg)

(* ---- script ---- *)

let script_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the step results as JSON (schema $(b,mv-svl-steps-v1)) \
             instead of the human-readable table.")
  in
  let run () model no_lint cache json remote =
    handle_errors (fun () ->
        (* classified to "script parse error: ..." (exit 2) when the
           script itself does not parse *)
        let sources = Mv_core.Svl.model_sources_of_file model in
        lint_gate ~no_lint sources;
        match remote with
        | Some addr ->
          (* ship the referenced .mvl sources along (flat names only —
             the daemon materializes them in a scratch directory) *)
          let files =
            List.map
              (fun path -> (Filename.basename path, Json.String (read_file path)))
              sources
          in
          finish_remote
            (remote_call addr ~op:"script"
               (Json.Obj
                  [
                    ("script", Json.String (read_file model));
                    ("files", Json.Obj files);
                    ("json", Json.Bool json);
                  ]))
        | None ->
          let cache = open_cache cache in
          print_texts
            (Ops.script_texts ?cache
               ~dir:(Filename.dirname model)
               ~json (read_file model)))
  in
  Cmd.v
    (Cmd.info "script" ~doc:"Run an SVL-style verification script")
    Term.(
      const run $ obs_term $ model_arg $ no_lint_arg $ cache_arg $ json_arg
      $ remote_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let steps_arg =
    Arg.(
      value & opt int 20
      & info [ "steps" ] ~docv:"N" ~doc:"Number of transitions to walk.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (runs are reproducible).")
  in
  let timed_arg =
    Arg.(
      value & flag
      & info [ "timed" ]
          ~doc:
            "Interpret 'rate' labels as exponential delays and print \
             timestamps (stochastic simulation of the underlying IMC).")
  in
  let replications_arg =
    Arg.(
      value & opt int 0
      & info [ "replications" ] ~docv:"N"
          ~doc:
            "Monte-Carlo mode: instead of printing one random walk, run \
             $(docv) independent replications of a throughput \
             estimation (requires $(b,--action)) and report their mean \
             and 95% confidence half-width. Replications draw from RNG \
             streams split from $(b,--seed), so the statistics are \
             identical for every $(b,-j).")
  in
  let action_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "action" ] ~docv:"GATE"
          ~doc:"Visible action whose throughput the replications estimate.")
  in
  let horizon_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "horizon" ] ~docv:"T"
          ~doc:"Simulated duration of each replication (default 1000).")
  in
  let run () model max_states steps seed timed replications action horizon
      jobs =
    handle_errors (fun () ->
        if replications > 0 then begin
          let action =
            match action with
            | Some a -> a
            | None ->
              prerr_endline "--replications requires --action GATE";
              exit 2
          in
          with_jobs jobs (fun pool ->
              let lts = load_lts ~max_states model in
              let imc = Mv_imc.Imc.of_lts lts in
              let stats =
                Mv_sim.Des.throughput_stats ?pool imc ~action ~horizon
                  ~replications ~seed:(Int64.of_int seed)
              in
              Obs.progress_end ();
              let half_width =
                if stats.Mv_sim.Des.replications < 2 then 0.0
                else
                  1.96 *. stats.Mv_sim.Des.stddev
                  /. sqrt (float_of_int stats.Mv_sim.Des.replications)
              in
              Printf.printf
                "throughput %-20s %.6g +/- %.3g (%d replication(s), \
                 horizon %g)\n"
                action stats.Mv_sim.Des.mean half_width
                stats.Mv_sim.Des.replications horizon)
        end
        else begin
        let lts = load_lts ~max_states model in
        let rng = Mv_util.Rng.create (Int64.of_int seed) in
        if timed then begin
          let imc = Mv_imc.Imc.of_lts lts in
          let clock = ref 0.0 in
          let state = ref (Mv_imc.Imc.initial imc) in
          let labels = Mv_imc.Imc.labels imc in
          (try
             for _ = 1 to steps do
               match Mv_imc.Imc.interactive_out imc !state with
               | (label, dst) :: _ as choices ->
                 let label, dst =
                   if List.length choices = 1 then (label, dst)
                   else List.nth choices (Mv_util.Rng.int rng (List.length choices))
                 in
                 Printf.printf "%10.4f  %s\n" !clock
                   (Mv_lts.Label.name labels label);
                 state := dst
               | [] ->
                 (match Mv_imc.Imc.markovian_out imc !state with
                  | [] ->
                    Printf.printf "%10.4f  <absorbing>\n" !clock;
                    raise Exit
                  | markovian ->
                    let total =
                      List.fold_left (fun acc (r, _) -> acc +. r) 0.0 markovian
                    in
                    clock := !clock +. Mv_util.Rng.exponential rng ~rate:total;
                    let u = Mv_util.Rng.float rng *. total in
                    let rec pick acc = function
                      | [] -> assert false
                      | [ (_, d) ] -> d
                      | (r, d) :: rest ->
                        if u < acc +. r then d else pick (acc +. r) rest
                    in
                    state := pick 0.0 markovian;
                    Printf.printf "%10.4f  <delay>\n" !clock)
             done
           with Exit -> ())
        end
        else begin
          let state = ref (Lts.initial lts) in
          (try
             for i = 1 to steps do
               let moves =
                 Lts.fold_out lts !state (fun l d acc -> (l, d) :: acc) []
               in
               match moves with
               | [] ->
                 Printf.printf "%4d  <deadlock>\n" i;
                 raise Exit
               | _ ->
                 let label, dst =
                   List.nth moves (Mv_util.Rng.int rng (List.length moves))
                 in
                 Printf.printf "%4d  %s\n" i
                   (Mv_lts.Label.name (Lts.labels lts) label);
                 state := dst
             done
           with Exit -> ())
        end
        end)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Random-walk simulation of a model")
    Term.(
      const run $ obs_term $ model_arg $ max_states_arg $ steps_arg $ seed_arg
      $ timed_arg $ replications_arg $ action_arg $ horizon_arg $ jobs_arg)

(* ---- lint ---- *)

let lint_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print diagnostics as a JSON array of objects with fields \
             $(b,code), $(b,severity), $(b,line) and $(b,message).")
  in
  let warn_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "W" ] ~docv:"SPEC"
          ~doc:
            "Diagnostic policy, repeatable. $(b,-W CODE=LEVEL) \
             reclassifies a rule (LEVEL is $(b,error), $(b,warning), \
             $(b,info) or $(b,ignore)), e.g. $(b,-W MVL005=ignore). \
             The bare spec $(b,-Werror) makes any warning fail the run \
             with exit code 1.")
  in
  let max_phases_arg =
    Arg.(
      value
      & opt int Lint.default_config.Lint.max_phase_product
      & info [ "max-phases" ] ~docv:"N"
          ~doc:
            "Threshold for MVL012: the estimated number of phase-type \
             combinations across the parallel components of init above \
             which a warning is emitted.")
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on a clean specification (no errors; no \
                            warnings when $(b,-Werror) is set).";
      Cmd.Exit.info 1 ~doc:"when $(b,-Werror) is set and warnings were \
                            reported.";
      Cmd.Exit.info 2 ~doc:"when errors were reported (or the model \
                            does not parse).";
    ]
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Static analysis of an MVL specification: every typechecker \
         problem plus call-graph, gate-usage, guard/interval and \
         stochastic well-formedness diagnostics, each with a stable \
         rule code and a source line. The same pass runs automatically \
         before $(b,generate), $(b,minimize), $(b,check), $(b,solve) \
         and $(b,script) (disable with $(b,--no-lint)); only \
         error-severity diagnostics block those commands.";
      `S "RULES";
      `Pre
        (String.concat "\n"
           (List.map
              (fun r ->
                 Printf.sprintf "%s  %-7s  %s" r.Lint.code
                   (Diagnostic.severity_name r.Lint.default_severity)
                   r.Lint.title)
              Lint.rules));
      `P "The full catalogue, with examples and fixes, is in doc/lint.md.";
    ]
  in
  let run model json warn max_phases remote =
    handle_errors (fun () ->
        match Ops.lint_config_of_specs ~max_phases warn with
        | Error msg ->
          prerr_endline msg;
          exit 2
        | Ok config -> (
          match remote with
          | Some addr ->
            finish_remote
              (remote_call addr ~op:"lint"
                 (Json.Obj
                    [
                      ("model", Json.String (read_file model));
                      ("file", Json.String model);
                      ("json", Json.Bool json);
                      ("warn", strings_json warn);
                      ("max_phases", Json.Int max_phases);
                    ]))
          | None ->
            print_texts
              (Ops.lint_texts ~config ~json ~file:model (read_file model))))
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Statically analyse an MVL model" ~exits ~man)
    Term.(
      const run $ model_arg $ json_arg $ warn_arg $ max_phases_arg $ remote_arg)

(* ---- info ---- *)

let info_cmd =
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"Also print a one-line lint summary (MVL models only).")
  in
  let run model max_states lint =
    handle_errors (fun () ->
        (* lint first: the summary survives even when the model is too
           broken to generate *)
        if lint then
          if Filename.check_suffix model ".mvl" then
            let ds = Lint.check_text (read_file model) in
            Printf.printf "lint: %s\n"
              (if ds = [] then "clean" else Diagnostic.summary ds)
          else print_endline "lint: not an MVL source";
        if Filename.check_suffix model ".mvb" then begin
          (* header + section index only: O(1) memory, never decodes
             the transition payload, so this works on files far larger
             than RAM *)
          let s = Mvb.stats model in
          Printf.printf "states: %d\n" s.Mvb.s_nb_states;
          Printf.printf "initial: %d\n" s.Mvb.s_initial;
          Printf.printf "labels: %d\n" s.Mvb.s_nb_labels;
          Printf.printf "transitions: %d\n" s.Mvb.s_nb_transitions;
          Printf.printf "file bytes: %d (label section %d, transition section %d)\n"
            s.Mvb.s_file_bytes s.Mvb.s_label_bytes s.Mvb.s_transition_bytes
        end
        else begin
          let lts = load_lts ~max_states model in
          Format.printf "%a@." Lts.pp lts;
          Printf.printf "deadlock states: %d\n"
            (List.length (Lts.deadlocks lts));
          print_endline "labels:";
          List.iter
            (fun l -> Printf.printf "  %s\n" l)
            (Lts.occurring_labels lts)
        end)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print model statistics")
    Term.(const run $ model_arg $ max_states_arg $ lint_flag)

(* ---- cache ---- *)

let cache_cmd =
  let require_cache dir =
    match dir with
    | Some dir -> Cache.open_dir dir
    | None ->
      prerr_endline "no cache directory (use --cache DIR or MVAL_CACHE)";
      exit 2
  in
  let stats_cmd =
    let json_arg =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the statistics as JSON (schema $(b,mv-store-stats-v1)).")
    in
    let run dir json remote =
      handle_errors (fun () ->
          match remote with
          | Some addr ->
            finish_remote
              (remote_call addr ~op:"cache-stats"
                 (Json.Obj [ ("json", Json.Bool json) ]))
          | None ->
            let cache = require_cache dir in
            print_texts (Ops.cache_stats_texts ~json cache))
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print entry count, size and hit/miss totals")
      Term.(const run $ cache_arg $ json_arg $ remote_arg)
  in
  let gc_cmd =
    let max_bytes_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:"Evict least-recently-used entries down to $(docv) bytes.")
    in
    let run dir max_bytes =
      handle_errors (fun () ->
          let cache = require_cache dir in
          let evicted = Cache.gc ?max_bytes cache in
          Printf.printf "evicted %d entr%s\n" evicted
            (if evicted = 1 then "y" else "ies"))
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Remove orphaned files and evict LRU entries beyond the cap")
      Term.(const run $ cache_arg $ max_bytes_arg)
  in
  let clear_cmd =
    let run dir =
      handle_errors (fun () ->
          let cache = require_cache dir in
          let removed = Cache.clear cache in
          Printf.printf "removed %d entr%s\n" removed
            (if removed = 1 then "y" else "ies"))
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cached artifact")
      Term.(const run $ cache_arg)
  in
  let default : unit Term.t = Term.(ret (const (`Help (`Pager, None)))) in
  Cmd.group ~default
    (Cmd.info "cache"
       ~doc:"Inspect and maintain a content-addressed artifact cache")
    [ stats_cmd; gc_cmd; clear_cmd ]

(* ---- version ---- *)

let version_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the version report as JSON instead of aligned text.")
  in
  let run json remote =
    handle_errors (fun () ->
        match remote with
        | Some addr ->
          let versions =
            remote_result (remote_call addr ~op:"version" (Json.Obj []))
          in
          print_texts (Ops.version_texts_of_json ~json versions)
        | None -> print_texts (Ops.version_texts ~json))
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the binary version and every protocol and on-disk schema \
          version (with $(b,--remote): the daemon's versions)")
    Term.(const run $ json_arg $ remote_arg)

let () =
  let default : unit Term.t = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "mval" ~version:Proto.binary_version
             ~doc:"Functional verification and performance evaluation of \
                   asynchronous architectures (the Multival flow)")
          [ generate_cmd; minimize_cmd; compare_cmd; check_cmd; solve_cmd;
            translate_cmd; trace_cmd; simulate_cmd; script_cmd; lint_cmd;
            info_cmd; cache_cmd; version_cmd ]))
