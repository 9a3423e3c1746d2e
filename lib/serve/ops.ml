module Json = Mv_obs.Json
module Obs = Mv_obs.Obs
module Flow = Mv_core.Flow
module Budget = Mv_core.Budget
module Svl = Mv_core.Svl
module Cache = Mv_store.Cache
module Lts = Mv_lts.Lts
module Aut = Mv_lts.Aut
module Lint = Mv_lint.Lint
module Diagnostic = Mv_lint.Diagnostic

type texts = { out : string; err : string; code : int }

let ok_out out = { out; err = ""; code = 0 }

(* ------------------------------------------------------------------ *)
(* Error classification                                                *)

let classify = function
  | Mv_calc.Parser.Parse_error msg | Mv_mcl.Parser.Parse_error msg ->
    Some (Proto.Model_error, "parse error: " ^ msg, 2)
  | Mv_mcl.Formula.Ill_formed msg ->
    Some (Proto.Model_error, "ill-formed formula: " ^ msg, 2)
  | Mv_calc.Typecheck.Type_error msg ->
    Some (Proto.Model_error, "type error: " ^ msg, 2)
  | Aut.Parse_error msg ->
    Some (Proto.Model_error, "aut parse error: " ^ msg, 2)
  | Mv_store.Mvb.Corrupt msg ->
    Some (Proto.Model_error, "mvb corrupt: " ^ msg, 2)
  | Svl.Parse_error msg ->
    Some (Proto.Model_error, "script parse error: " ^ msg, 2)
  | Mv_lts.Explore.Too_many_states n ->
    Some
      ( Proto.Too_many_states,
        Printf.sprintf "state space exceeds %d states (raise --max-states)" n,
        3 )
  | Mv_imc.To_ctmc.Nondeterministic state ->
    Some
      ( Proto.Nondeterministic,
        Printf.sprintf
          "rejected: nondeterministic vanishing state %d (rerun with \
           --scheduler uniform)"
          state,
        4 )
  | Mv_imc.To_ctmc.Divergence state ->
    Some
      ( Proto.Model_error,
        Printf.sprintf
          "divergence: vanishing state %d loops forever through \
           immediate transitions, never reaching a state with a rate"
          state,
        2 )
  | Budget.Exceeded { Budget.resource; message } ->
    Some
      ( Proto.Budget_exceeded,
        Printf.sprintf "budget exceeded (%s): %s" resource message,
        5 )
  | Sys_error msg -> Some (Proto.Model_error, msg, 2)
  | _ -> None

let exit_code_of_kind = function
  | Proto.Bad_request | Proto.Unsupported_op | Proto.Model_error
  | Proto.No_cache ->
    2
  | Proto.Too_many_states -> 3
  | Proto.Nondeterministic -> 4
  | Proto.Budget_exceeded -> 5
  | Proto.Overloaded | Proto.Draining -> 75
  | Proto.Internal -> 70

(* ------------------------------------------------------------------ *)
(* Renderers (the single copy of every command's output format)        *)

let minimize_note ~before ~after =
  Printf.sprintf "%d -> %d states\n" before after

let compare_texts config equivalence la lb =
  let buffer = Buffer.create 64 in
  let equal = Flow.Run.equivalent config equivalence la lb in
  Buffer.add_string buffer (if equal then "equivalent\n" else "NOT equivalent\n");
  if (not equal) && equivalence = Flow.Traces then begin
    match Mv_bisim.Traces.counterexample la lb with
    | Some trace ->
      Buffer.add_string buffer
        (Printf.sprintf "first model performs: %s\n" (String.concat "; " trace))
    | None -> (
      match Mv_bisim.Traces.counterexample lb la with
      | Some trace ->
        Buffer.add_string buffer
          (Printf.sprintf "second model performs: %s\n"
             (String.concat "; " trace))
      | None -> ())
  end;
  { out = Buffer.contents buffer; err = ""; code = (if equal then 0 else 1) }

let check_texts ?engine:_ ~deadlock ~formulas lts =
  let checks =
    (if deadlock then
       [ ("deadlock freedom", Mv_mcl.Formula.Macro.deadlock_free) ]
     else [])
    @ List.map (fun f -> (f, Mv_mcl.Parser.formula_of_string f)) formulas
  in
  if checks = [] then
    { out = "";
      err = "nothing to check (use --formula or --deadlock)\n";
      code = 2 }
  else begin
    let buffer = Buffer.create 256 in
    let failures = ref 0 in
    List.iter
      (fun (name, formula) ->
         if Mv_mcl.Eval.holds lts formula then
           Buffer.add_string buffer (Printf.sprintf "%-60s holds\n" name)
         else begin
           incr failures;
           (* a violated invariant shows a shortest trace into a state
              where its body fails (for deadlock freedom, a deadlock);
              any other formula fails at the initial state itself,
              where no trace helps *)
           let witness =
             Option.bind (Mv_mcl.Formula.invariant formula) (fun phi ->
                 Mv_lts.Trace.shortest_to_violation lts
                   ~sat:(Mv_mcl.Eval.sat lts phi))
           in
           match witness with
           | Some t ->
             Buffer.add_string buffer
               (Printf.sprintf "%-60s VIOLATED (witness: %s)\n" name
                  (Mv_lts.Trace.to_string t))
           | None ->
             Buffer.add_string buffer
               (Printf.sprintf "%-60s VIOLATED\n" name)
         end)
      checks;
    { out = Buffer.contents buffer;
      err = "";
      code = (if !failures = 0 then 0 else 1) }
  end

let solve_texts config ~first spec =
  let perf = Flow.Run.performance config spec in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "IMC: %d states; lumped: %d; CTMC: %d\n"
       (Mv_imc.Imc.nb_states perf.Flow.imc)
       (Mv_imc.Imc.nb_states perf.Flow.lumped)
       (Mv_markov.Ctmc.nb_states perf.Flow.conversion.Mv_imc.To_ctmc.ctmc));
  (match perf.Flow.conversion.Mv_imc.To_ctmc.nondeterministic with
   | [] -> ()
   | states ->
     Buffer.add_string buffer
       (Printf.sprintf
          "note: %d statically nondeterministic vanishing state(s) (resolved \
           by the scheduler if reached during elimination)\n"
          (List.length states)));
  List.iter
    (fun (action, value) ->
       Buffer.add_string buffer
         (Printf.sprintf "throughput %-20s %.6g\n" action value))
    (Flow.throughputs perf);
  let warning solve (stats : Mv_markov.Solver_stats.t) =
    if stats.converged then ""
    else
      Printf.sprintf
        "warning: %s solve did NOT converge (%d iteration(s), residual \
         %.3g); the reported measures may be inaccurate\n"
        solve stats.iterations stats.residual
  in
  let err = warning "steady-state" (Flow.solver_stats perf) in
  let err =
    match first with
    | None -> err
    | Some gate ->
      let time, stats = Flow.time_to_first perf ~gate in
      Buffer.add_string buffer
        (Printf.sprintf "mean time to first %-9s %.6g\n" gate time);
      err ^ warning (Printf.sprintf "passage-time (%s)" gate) stats
  in
  { out = Buffer.contents buffer; err; code = 0 }

let script_texts ?cache ?dir ~json script =
  let steps = Svl.run_string ?cache ?dir script in
  let out =
    if json then Json.to_string (Svl.steps_json steps) ^ "\n"
    else begin
      let buffer = Buffer.create 256 in
      List.iter
        (fun step ->
           let cache_note =
             match step.Svl.outcome with
             | Svl.Passed { cache = Some { Svl.hits; misses }; _ }
               when hits + misses > 0 ->
               Printf.sprintf " [cache: %d hit(s), %d miss(es)]" hits misses
             | _ -> ""
           in
           Buffer.add_string buffer
             (Printf.sprintf "%s %-60s %s%s\n"
                (if Svl.ok step then "[ ok ]" else "[FAIL]")
                step.Svl.description step.Svl.detail cache_note))
        steps;
      Buffer.contents buffer
    end
  in
  { out; err = ""; code = (if Svl.all_ok steps then 0 else 1) }

let lint_config_of_specs ~max_phases specs =
  List.fold_left
    (fun acc spec ->
       match acc with
       | Error _ -> acc
       | Ok config ->
         if spec = "error" then Ok { config with Lint.werror = true }
         else (
           match Lint.parse_override spec with
           | Some ov ->
             Ok { config with Lint.overrides = config.Lint.overrides @ [ ov ] }
           | None ->
             Error
               (Printf.sprintf
                  "invalid -W argument %S (expected CODE=LEVEL or 'error')"
                  spec)))
    (Ok { Lint.default_config with Lint.max_phase_product = max_phases })
    specs

let lint_texts ~config ~json ~file text =
  let ds = Lint.check_text ~config text in
  let out =
    if json then Diagnostic.to_json ds
    else
      String.concat ""
        (List.map (fun d -> Diagnostic.render ~file d ^ "\n") ds)
      ^ ((if ds = [] then "clean" else Diagnostic.summary ds) ^ "\n")
  in
  { out; err = ""; code = Lint.exit_code ~config ds }

let cache_stats_texts ~json cache =
  if json then ok_out (Json.to_string (Cache.stats_json cache) ^ "\n")
  else begin
    let s = Cache.stats cache in
    let buffer = Buffer.create 128 in
    Buffer.add_string buffer (Printf.sprintf "cache %s\n" (Cache.dir cache));
    Buffer.add_string buffer
      (Printf.sprintf "  entries    %d\n" s.Cache.entries);
    Buffer.add_string buffer
      (Printf.sprintf "  bytes      %d%s\n" s.Cache.bytes
         (match s.Cache.capacity with
          | Some cap -> Printf.sprintf " (cap %d)" cap
          | None -> ""));
    Buffer.add_string buffer (Printf.sprintf "  hits       %d\n" s.Cache.hits);
    Buffer.add_string buffer
      (Printf.sprintf "  misses     %d\n" s.Cache.misses);
    Buffer.add_string buffer
      (Printf.sprintf "  evictions  %d\n" s.Cache.evictions);
    ok_out (Buffer.contents buffer)
  end

(* Rendered from the JSON document (rather than from the constants
   directly) so that [mval version --remote] prints a daemon's report
   through the exact same code path. *)
let version_texts_of_json ~json versions =
  if json then ok_out (Json.to_string versions ^ "\n")
  else begin
    let field name =
      match Json.member name versions with
      | Some (Json.String s) -> s
      | Some (Json.Int n) -> string_of_int n
      | _ -> "?"
    in
    let buffer = Buffer.create 128 in
    List.iter
      (fun (label, value) ->
         Buffer.add_string buffer (Printf.sprintf "%-12s %s\n" label value))
      [ ("binary", field "binary");
        ("protocol", field "protocol");
        ("mvb-format", field "mvb_format") ];
    (match Json.member "schemas" versions with
     | Some (Json.List schemas) ->
       List.iter
         (function
           | Json.String s ->
             Buffer.add_string buffer (Printf.sprintf "%-12s %s\n" "schema" s)
           | _ -> ())
         schemas
     | _ -> ());
    ok_out (Buffer.contents buffer)
  end

let version_texts ~json = version_texts_of_json ~json (Proto.versions_json ())

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)

exception Bad of string
exception Unsupported of string
exception No_cache_configured

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let str_field ?default name args =
  match Json.member name args with
  | Some (Json.String s) -> s
  | Some _ -> bad "field %S must be a string" name
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "missing string field %S" name)

let int_field ~default name args =
  match Json.member name args with
  | Some (Json.Int n) -> n
  | Some _ -> bad "field %S must be an integer" name
  | None -> default

let bool_field ~default name args =
  match Json.member name args with
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name
  | None -> default

let float_field ~default name args =
  match Json.member name args with
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | Some _ -> bad "field %S must be a number" name
  | None -> default

let string_list_field name args =
  match Json.member name args with
  | Some (Json.List items) ->
    List.map
      (function
        | Json.String s -> s
        | _ -> bad "field %S must be a list of strings" name)
      items
  | Some Json.Null | None -> []
  | Some _ -> bad "field %S must be a list of strings" name

let opt_str_field name args =
  match Json.member name args with
  | Some (Json.String s) -> Some s
  | Some Json.Null | None -> None
  | Some _ -> bad "field %S must be a string" name

let equivalence_of_name = function
  | "strong" -> Some Flow.Strong
  | "branching" -> Some Flow.Branching
  | "divbranching" -> Some Flow.Divbranching
  | "weak" -> Some Flow.Weak
  | "traces" -> Some Flow.Traces
  | _ -> None

let equivalence_field args =
  let name = str_field ~default:"branching" "equivalence" args in
  match equivalence_of_name name with
  | Some eq -> eq
  | None -> bad "unknown equivalence %S" name

(* A model payload: {"kind": "mvl" | "aut", "text": "..."}. MVL
   sources run through the (cache-memoized) flow generation; .aut
   texts are parsed directly, exactly like a local [mval] run on an
   .aut file. The client converts .mvb inputs to .aut before
   sending — the protocol carries only text. *)
let lts_of_model config name args =
  match Json.member name args with
  | None -> bad "missing field %S" name
  | Some m -> (
    let text = str_field "text" m in
    match str_field ~default:"mvl" "kind" m with
    | "mvl" -> Flow.Run.generate config (Flow.model_of_text text)
    | "aut" -> Aut.of_string text
    | kind -> bad "unknown model kind %S (expected mvl or aut)" kind)

let apply_hide args lts =
  match string_list_field "hide" args with
  | [] -> lts
  | gates -> Lts.hide lts ~gates

let with_temp_dir f =
  let dir = Filename.temp_file "mvald_script" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try remove_tree dir with Sys_error _ -> ())
    (fun () -> f dir)

let texts_json ?(extra = []) t =
  Json.Obj
    (("stdout", Json.String t.out)
     :: ("stderr", Json.String t.err)
     :: ("exit", Json.Int t.code)
     :: extra)

let texts_of_json json =
  {
    out =
      (match Json.member "stdout" json with
       | Some (Json.String s) -> s
       | _ -> "");
    err =
      (match Json.member "stderr" json with
       | Some (Json.String s) -> s
       | _ -> "");
    code =
      (match Json.member "exit" json with Some (Json.Int n) -> n | _ -> 0);
  }

let lts_result lts =
  Json.Obj
    [
      ("artifact", Json.String (Aut.to_string lts));
      ("states", Json.Int (Lts.nb_states lts));
      ("transitions", Json.Int (Lts.nb_transitions lts));
    ]

let run_generate config args =
  let lts = apply_hide args (lts_of_model config "model" args) in
  lts_result lts

let run_minimize config args =
  let equivalence = equivalence_field args in
  let lts = apply_hide args (lts_of_model config "model" args) in
  let minimized = Flow.Run.minimize config equivalence lts in
  (match lts_result minimized with
   | Json.Obj fields ->
     Json.Obj (("states_before", Json.Int (Lts.nb_states lts)) :: fields)
   | other -> other)

let run_equivalent config args =
  let equivalence = equivalence_field args in
  let la = lts_of_model config "a" args
  and lb = lts_of_model config "b" args in
  texts_json (compare_texts config equivalence la lb)

let run_check config args =
  let lts = lts_of_model config "model" args in
  texts_json
    (check_texts
       ~deadlock:(bool_field ~default:false "deadlock" args)
       ~formulas:(string_list_field "formulas" args)
       lts)

let run_solve config args =
  let spec = Flow.model_of_text (str_field "model" args) in
  let scheduler =
    match str_field ~default:"uniform" "scheduler" args with
    | "uniform" -> Mv_imc.To_ctmc.Uniform
    | "fail" -> Mv_imc.To_ctmc.Fail
    | s -> bad "unknown scheduler %S (expected uniform or fail)" s
  in
  let solve_method =
    match opt_str_field "method" args with
    | None -> None
    | Some name -> (
      match Mv_kern.Solver.method_of_name name with
      | Some m -> Some m
      | None ->
        bad "unknown solve method %S (expected gs or gauss-seidel)" name)
  in
  let config =
    {
      config with
      Flow.Config.keep = string_list_field "keep" args;
      scheduler;
      solve_method;
    }
  in
  texts_json (solve_texts config ~first:(opt_str_field "time_to_first" args) spec)

let run_script cache args =
  let script = str_field "script" args in
  let json = bool_field ~default:false "json" args in
  let files =
    match Json.member "files" args with
    | Some (Json.Obj fields) ->
      List.map
        (fun (name, value) ->
           match value with
           | Json.String text -> (name, text)
           | _ -> bad "field \"files\" must map names to text")
        fields
    | Some Json.Null | None -> []
    | Some _ -> bad "field \"files\" must be an object"
  in
  List.iter
    (fun (name, _) ->
       if Filename.basename name <> name || name = "." || name = ".." then
         bad "illegal file name %S in \"files\"" name)
    files;
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, text) ->
       Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
           Out_channel.output_string oc text))
    files;
  texts_json (script_texts ?cache ~dir ~json script)

let run_lint args =
  let specs = string_list_field "warn" args in
  let max_phases =
    int_field ~default:Lint.default_config.Lint.max_phase_product "max_phases"
      args
  in
  match lint_config_of_specs ~max_phases specs with
  | Error msg -> texts_json { out = ""; err = msg ^ "\n"; code = 2 }
  | Ok config ->
    texts_json
      (lint_texts ~config
         ~json:(bool_field ~default:false "json" args)
         ~file:(str_field ~default:"<remote>" "file" args)
         (str_field "model" args))

let run_sleep budget args =
  let duration = float_field ~default:0.0 "s" args in
  let deadline = Unix.gettimeofday () +. duration in
  let rec wait () =
    (match budget with Some b -> Budget.tick b | None -> ());
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining > 0.0 then begin
      Unix.sleepf (Float.min 0.01 remaining);
      wait ()
    end
  in
  wait ();
  Json.Obj [ ("slept_s", Json.Float duration) ]

(* Family rules for the OpenMetrics exposition: per-op registry names
   become one family with an "op" label (see Mv_obs.Openmetrics). *)
let openmetrics_families =
  [ ("serve.request_latency_s.", "op"); ("serve.exec_s.", "op") ]

let openmetrics_text () =
  Mv_obs.Openmetrics.render ~families:openmetrics_families ()

let dispatch ?cache ?server (request : Proto.request) =
  let budget =
    Option.map
      (fun (b : Proto.budget_spec) ->
         Budget.create ?max_states:b.max_states ?wall_s:b.wall_s ())
      request.Proto.budget
  in
  let args = request.Proto.args in
  let config =
    {
      Flow.Config.default with
      cache;
      budget;
      max_states = Some (int_field ~default:1_000_000 "max_states" args);
    }
  in
  try
    Obs.span "serve.request"
      ~args:[ ("op", Json.String request.Proto.op) ]
    @@ fun () ->
    Ok
      (match request.Proto.op with
       | "generate" -> run_generate config args
       | "minimize" -> run_minimize config args
       | "equivalent" -> run_equivalent config args
       | "check" -> run_check config args
       | "solve" -> run_solve config args
       | "script" -> run_script cache args
       | "lint" -> run_lint args
       | "cache-stats" -> (
         match cache with
         | Some cache ->
           texts_json
             (cache_stats_texts
                ~json:(bool_field ~default:false "json" args)
                cache)
         | None -> raise No_cache_configured)
       | "metrics" ->
         Json.Obj
           [
             ("metrics", Obs.metrics_json ());
             ( "server",
               match server with Some f -> f () | None -> Json.Null );
           ]
       | "metrics-text" -> texts_json (ok_out (openmetrics_text ()))
       | "logs" ->
         let limit = int_field ~default:Mv_obs.Log.capacity "limit" args in
         Mv_obs.Log.dump_json ~limit ()
       | "version" -> Proto.versions_json ()
       | "ping" -> Json.Obj []
       | "sleep" -> run_sleep budget args
       | op -> raise (Unsupported op))
  with
  | Bad msg -> Error { Proto.kind = Proto.Bad_request; message = msg }
  | Unsupported op ->
    Error
      {
        Proto.kind = Proto.Unsupported_op;
        message = Printf.sprintf "unsupported op %S" op;
      }
  | No_cache_configured ->
    Error
      {
        Proto.kind = Proto.No_cache;
        message = "no cache directory configured on this daemon";
      }
  | exn -> (
    match classify exn with
    | Some (kind, message, _) -> Error { Proto.kind; message }
    | None ->
      Error { Proto.kind = Proto.Internal; message = Printexc.to_string exn })
