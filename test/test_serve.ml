(* Tests for mv_serve: the mv-serve-v1 wire protocol, hardened JSON
   parsing of untrusted socket input, the shared op dispatch, and an
   in-process end-to-end server (admission control, per-request cache
   provenance, budgets, overload fast-reject, graceful drain). *)

module Json = Mv_obs.Json
module Obs = Mv_obs.Obs
module Log = Mv_obs.Log
module Proto = Mv_serve.Proto
module Ops = Mv_serve.Ops
module Server = Mv_serve.Server
module Client = Mv_serve.Client
module Cache = Mv_store.Cache
module Flow = Mv_core.Flow

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let in_sandbox f =
  let dir = Filename.temp_file "mv_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let mm1_text ~capacity =
  Printf.sprintf
    {|
process Producer := rate 2.0 ; push ; Producer
process Consumer := pop ; rate 3.0 ; Consumer
process Queue (n : int[0..%d]) :=
    [n < %d] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
init (Producer |[push]| Queue(0)) |[pop]| Consumer
|}
    capacity capacity

let model_args ?(capacity = 2) ?(extra = []) () =
  Json.Obj
    (( "model",
       Json.Obj
         [
           ("kind", Json.String "mvl");
           ("text", Json.String (mm1_text ~capacity));
         ] )
     :: extra)

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)

let test_addr_parsing () =
  let ok text expected =
    match Proto.addr_of_string text with
    | Ok addr ->
      Alcotest.(check string) text expected (Proto.addr_to_string addr)
    | Error msg -> Alcotest.fail (text ^ ": " ^ msg)
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "./d.sock" "unix:./d.sock";
  ok "tcp:localhost:7777" "tcp:localhost:7777";
  ok "localhost:7777" "tcp:localhost:7777";
  List.iter
    (fun text ->
       match Proto.addr_of_string text with
       | Ok addr ->
         Alcotest.fail
           (Printf.sprintf "%S parsed as %s" text (Proto.addr_to_string addr))
       | Error _ -> ())
    [ ""; "tcp:localhost"; "tcp:host:notaport"; "tcp:host:99999"; "plainname" ]

let test_request_round_trip () =
  let request =
    {
      Proto.id = 42;
      op = "generate";
      args = model_args ();
      budget = Some { Proto.max_states = Some 100; wall_s = Some 1.5 };
      trace = Some { Proto.request_id = "req-001"; collect_spans = true };
    }
  in
  (match Proto.parse_request (Proto.encode_request request) with
   | Error msg -> Alcotest.fail msg
   | Ok parsed ->
     Alcotest.(check int) "id" request.Proto.id parsed.Proto.id;
     Alcotest.(check string) "op" request.Proto.op parsed.Proto.op;
     Alcotest.(check bool) "args" true (request.Proto.args = parsed.Proto.args);
     Alcotest.(check bool) "budget" true
       (request.Proto.budget = parsed.Proto.budget);
     Alcotest.(check bool) "trace spec" true
       (request.Proto.trace = parsed.Proto.trace));
  (* a traceless request stays traceless; unknown peers' extra fields
     never break parsing *)
  match
    Proto.parse_request
      (Proto.encode_request { request with Proto.trace = None })
  with
  | Error msg -> Alcotest.fail msg
  | Ok parsed -> Alcotest.(check bool) "no trace" true (parsed.Proto.trace = None)

let test_response_round_trip () =
  let ok_response =
    {
      Proto.rsp_id = 7;
      outcome = Ok (Json.Obj [ ("states", Json.Int 16) ]);
      cache = Some (3, 1);
      elapsed_s = 0.25;
      trace =
        Some
          (Json.Obj
             [
               ("schema", Json.String Obs.trace_spans_schema);
               ("spans", Json.List []);
             ]);
    }
  in
  (match Proto.parse_response (Proto.encode_response ok_response) with
   | Error msg -> Alcotest.fail msg
   | Ok parsed ->
     Alcotest.(check int) "id" 7 parsed.Proto.rsp_id;
     Alcotest.(check bool) "outcome" true
       (parsed.Proto.outcome = ok_response.Proto.outcome);
     Alcotest.(check bool) "cache" true (parsed.Proto.cache = Some (3, 1));
     Alcotest.(check bool) "trace" true
       (parsed.Proto.trace = ok_response.Proto.trace));
  let err_response =
    {
      Proto.rsp_id = 8;
      outcome =
        Error { Proto.kind = Proto.Budget_exceeded; message = "too big" };
      cache = None;
      elapsed_s = 0.0;
      trace = None;
    }
  in
  match Proto.parse_response (Proto.encode_response err_response) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
    Alcotest.(check bool) "error outcome" true
      (parsed.Proto.outcome = err_response.Proto.outcome)

let test_frame_round_trip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
       let body = String.init 1000 (fun i -> Char.chr (i mod 256)) in
       Proto.write_frame w body;
       (match Proto.read_frame r with
        | Some got -> Alcotest.(check string) "frame body" body got
        | None -> Alcotest.fail "unexpected EOF");
       (* an oversized frame is rejected without being read *)
       Proto.write_frame w (String.make 100 'x');
       match Proto.read_frame ~max_frame:10 r with
       | exception Proto.Frame_error _ -> ()
       | _ -> Alcotest.fail "oversized frame accepted")

(* ------------------------------------------------------------------ *)
(* JSON hardening for untrusted input                                  *)

let json_gen =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun f -> Json.Float f) float;
            map (fun s -> Json.String s) (string_size (int_bound 20));
          ]
      in
      if n = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4)
                 (pair (string_size (int_bound 8)) (self (n - 1))));
          ])

let json_round_trip_prop =
  QCheck2.Test.make ~name:"json round-trips through print and hardened parse"
    ~count:500 json_gen (fun json ->
      Json.of_string (Json.to_string ~compact:true json) = json)

let test_json_adversarial () =
  let rejected ?max_depth ?max_bytes text =
    match Json.of_string ?max_depth ?max_bytes text with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
  in
  (* nesting bomb: the counter starts at 0, so max_depth:32 admits 33
     bracket levels and rejects the 34th *)
  let deep n = String.make n '[' ^ String.make n ']' in
  rejected ~max_depth:32 (deep 34);
  ignore (Json.of_string ~max_depth:32 (deep 33));
  (* the default depth cap also holds *)
  rejected (deep (Json.default_max_depth + 2));
  (* size cap *)
  rejected ~max_bytes:16 (Printf.sprintf "%S" (String.make 100 'a'));
  (* trailing garbage after a valid document *)
  rejected "{} []";
  rejected "1 2";
  rejected "[1,2,3] x";
  (* truncated documents *)
  rejected "{\"a\":";
  rejected "[1,2";
  rejected "\"unterminated";
  (* malformed requests never crash the protocol layer *)
  List.iter
    (fun body ->
       match Proto.parse_request body with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail (Printf.sprintf "request accepted: %S" body))
    [
      "";
      "not json";
      "[]";
      "{\"schema\":\"bogus\",\"id\":1,\"op\":\"ping\"}";
      "{\"schema\":\"mv-serve-v1\",\"op\":\"ping\"}";
      "{\"schema\":\"mv-serve-v1\",\"id\":1}";
      deep 64;
    ]

(* ------------------------------------------------------------------ *)
(* Stale cache temp files                                              *)

let test_sweep_tmp () =
  in_sandbox @@ fun dir ->
  let cache = Cache.open_dir dir in
  Cache.store cache ~key:"live" ~op:"test" "payload";
  (* plant what a writer killed between write and rename leaves *)
  let plant path = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "junk") in
  plant (Filename.concat dir "index.json.tmp.12345");
  plant (Filename.concat (Filename.concat dir "objects") "abc.tmp.12345");
  let swept = Cache.sweep_tmp cache in
  Alcotest.(check int) "both stale files swept" 2 swept;
  Alcotest.(check bool) "stale object tmp removed" false
    (Sys.file_exists (Filename.concat (Filename.concat dir "objects") "abc.tmp.12345"));
  Alcotest.(check (option string)) "live object untouched" (Some "payload")
    (Cache.find cache ~key:"live");
  Alcotest.(check int) "nothing left to sweep" 0 (Cache.sweep_tmp cache)

(* ------------------------------------------------------------------ *)
(* Dispatch (no sockets)                                               *)

let dispatch ?cache ?budget op args =
  Ops.dispatch ?cache { Proto.id = 1; op; args; budget; trace = None }

let error_kind = function
  | Error { Proto.kind; _ } -> Some kind
  | Ok _ -> None

let test_dispatch_basics () =
  (match dispatch "ping" (Json.Obj []) with
   | Ok _ -> ()
   | Error { Proto.message; _ } -> Alcotest.fail message);
  (match dispatch "version" (Json.Obj []) with
   | Ok versions ->
     Alcotest.(check bool) "protocol version present" true
       (Json.member "protocol" versions = Some (Json.String Proto.schema))
   | Error { Proto.message; _ } -> Alcotest.fail message);
  Alcotest.(check bool) "unsupported op" true
    (error_kind (dispatch "frobnicate" (Json.Obj [])) = Some Proto.Unsupported_op);
  Alcotest.(check bool) "missing model is bad_request" true
    (error_kind (dispatch "generate" (Json.Obj [])) = Some Proto.Bad_request);
  Alcotest.(check bool) "broken model is model_error" true
    (error_kind
       (dispatch "generate"
          (Json.Obj
             [
               ( "model",
                 Json.Obj
                   [ ("kind", Json.String "mvl"); ("text", Json.String "???") ]
               );
             ]))
     = Some Proto.Model_error);
  Alcotest.(check bool) "cache-stats without cache is no_cache" true
    (error_kind (dispatch "cache-stats" (Json.Obj [])) = Some Proto.No_cache)

let test_dispatch_budget () =
  (* a states budget far below the model's size must come back as a
     structured budget_exceeded error *)
  Alcotest.(check bool) "states budget" true
    (error_kind
       (dispatch "generate" (model_args ())
          ~budget:{ Proto.max_states = Some 2; wall_s = None })
     = Some Proto.Budget_exceeded);
  (* the wall budget interrupts a sleeping request *)
  Alcotest.(check bool) "wall budget" true
    (error_kind
       (dispatch "sleep"
          (Json.Obj [ ("s", Json.Float 5.0) ])
          ~budget:{ Proto.max_states = None; wall_s = Some 0.05 })
     = Some Proto.Budget_exceeded);
  (* the states budget applies to cached results too: warm the cache
     without a budget, then ask again under one — the cache hit must
     still come back as budget_exceeded, exactly like the cold run *)
  in_sandbox @@ fun dir ->
  let cache = Cache.open_dir dir in
  (match dispatch ~cache "generate" (model_args ()) with
   | Ok _ -> ()
   | Error { Proto.message; _ } ->
     Alcotest.fail ("unbudgeted warm-up failed: " ^ message));
  Alcotest.(check bool) "states budget on a cache hit" true
    (error_kind
       (dispatch ~cache "generate" (model_args ())
          ~budget:{ Proto.max_states = Some 2; wall_s = None })
     = Some Proto.Budget_exceeded)

(* A violated invariant shows a shortest trace into a state where its
   body fails; deadlock freedom is one, with the deadlock as that
   state. Any other violated formula shows no trace. *)
let test_check_witnesses () =
  let labels = Mv_lts.Label.create () in
  let lts =
    Mv_lts.Lts.make ~nb_states:4 ~initial:0 ~labels
      (List.map
         (fun (s, l, d) -> (s, Mv_lts.Label.intern labels l, d))
         [ (0, "go", 1); (1, "work", 2); (2, "done", 0); (2, "i", 3) ])
  in
  let texts =
    Ops.check_texts ~deadlock:true
      ~formulas:[ "[true*] <go | done> true"; "<done> true"; "[true*] <any> true" ]
      lts
  in
  let line name verdict = Printf.sprintf "%-60s %s\n" name verdict in
  Alcotest.(check string) "verdicts"
    (line "deadlock freedom" "VIOLATED (witness: go; work; i)"
    ^ line "[true*] <go | done> true" "VIOLATED (witness: go)"
    ^ line "<done> true" "VIOLATED"
    ^ line "[true*] <any> true" "VIOLATED (witness: go; work; i)")
    texts.Ops.out;
  Alcotest.(check int) "exit code" 1 texts.Ops.code

(* An ill-formed formula and a model whose vanishing states never reach
   a rate are the user's faults: exit 2 and model_error, locally and on
   the daemon, with a message that says what is wrong. *)
let test_model_faults () =
  let classified exn =
    match Ops.classify exn with
    | Some (kind, message, code) -> (kind, message, code)
    | None -> Alcotest.fail ("unclassified: " ^ Printexc.to_string exn)
  in
  let kind, message, code =
    classified (Mv_mcl.Formula.Ill_formed "unbound variable Y")
  in
  Alcotest.(check bool) "ill-formed formula is model_error" true
    (kind = Proto.Model_error);
  Alcotest.(check int) "ill-formed formula exits 2" 2 code;
  Alcotest.(check string) "ill-formed formula message"
    "ill-formed formula: unbound variable Y" message;
  let kind, message, code = classified (Mv_imc.To_ctmc.Divergence 7) in
  Alcotest.(check bool) "divergence is model_error" true
    (kind = Proto.Model_error);
  Alcotest.(check int) "divergence exits 2" 2 code;
  Alcotest.(check bool) "divergence names the vanishing state" true
    (Astring.String.is_infix ~affix:"vanishing state 7" message);
  let model_error op args =
    match dispatch op args with
    | Error { Proto.kind = Proto.Model_error; message } -> message
    | Error { Proto.message; _ } -> Alcotest.fail (op ^ ": " ^ message)
    | Ok _ -> Alcotest.fail (op ^ ": expected model_error")
  in
  List.iter
    (fun (formula, fault) ->
       let message =
         model_error "check"
           (model_args
              ~extra:[ ("formulas", Json.List [ Json.String formula ]) ]
              ())
       in
       Alcotest.(check bool) (formula ^ ": " ^ message) true
         (Astring.String.is_infix ~affix:fault message))
    [
      ("mu X . not X", "negation");
      ("Y", "unbound variable Y");
      ("nu X . mu Y . <a> X or <b> Y", "opposite sign");
    ];
  let message =
    model_error "solve"
      (Json.Obj
         [ ("model", Json.String "process P := a ; b ; P\ninit P\n") ])
  in
  Alcotest.(check bool) ("solve: " ^ message) true
    (Astring.String.is_infix ~affix:"vanishing state 0" message)

(* ------------------------------------------------------------------ *)
(* End-to-end server                                                   *)

let with_server ?(workers = 2) ?(queue_capacity = 8) ?(with_cache = false) f =
  in_sandbox @@ fun dir ->
  let cache =
    if with_cache then Some (Cache.open_dir (Filename.concat dir "cache"))
    else None
  in
  let server =
    Server.create
      {
        Server.addr = Proto.Unix_path (Filename.concat dir "d.sock");
        workers;
        queue_capacity;
        max_frame = Proto.default_max_frame;
        cache;
        slow_s = Server.default_slow_s;
      }
  in
  let runner = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain server;
      Thread.join runner)
    (fun () -> f (Server.addr server) server)

let check_ok name response =
  match response.Proto.outcome with
  | Ok result -> result
  | Error { Proto.message; _ } -> Alcotest.fail (name ^ ": " ^ message)

let artifact_of result =
  match Json.member "artifact" result with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "missing artifact"

let test_server_warm_cache () =
  with_server ~with_cache:true @@ fun addr _server ->
  Client.with_connection addr @@ fun client ->
  let cold = Client.call client ~op:"generate" (model_args ()) in
  let cold_result = check_ok "cold" cold in
  (match cold.Proto.cache with
   | Some (_, misses) when misses > 0 -> ()
   | provenance ->
     Alcotest.fail
       (Printf.sprintf "cold request should record misses, got %s"
          (match provenance with
           | None -> "no provenance"
           | Some (h, m) -> Printf.sprintf "(%d,%d)" h m)));
  let warm = Client.call client ~op:"generate" (model_args ()) in
  let warm_result = check_ok "warm" warm in
  (match warm.Proto.cache with
   | Some (hits, 0) when hits > 0 -> ()
   | provenance ->
     Alcotest.fail
       (Printf.sprintf "warm request should be all hits, got %s"
          (match provenance with
           | None -> "no provenance"
           | Some (h, m) -> Printf.sprintf "(%d,%d)" h m)));
  Alcotest.(check string) "cold and warm artifacts identical"
    (artifact_of cold_result) (artifact_of warm_result);
  (* byte-identical to a local, pool-less run *)
  let local =
    Mv_lts.Aut.to_string
      (Flow.Run.generate
         { Flow.Config.default with max_states = Some 1_000_000 }
         (Flow.model_of_text (mm1_text ~capacity:2)))
  in
  Alcotest.(check string) "remote artifact matches local run" local
    (artifact_of cold_result)

let test_server_budget_concurrent () =
  (* an over-budget request fails with a structured error while a
     concurrent small request on the same pool completes *)
  with_server ~workers:2 @@ fun addr _server ->
  let big_outcome = ref None and small_outcome = ref None in
  let big =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             big_outcome :=
               Some
                 (Client.call client ~op:"generate"
                    ~budget:{ Proto.max_states = Some 3; wall_s = None }
                    (model_args ~capacity:30 ()))))
      ()
  and small =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             small_outcome :=
               Some (Client.call client ~op:"generate" (model_args ()))))
      ()
  in
  Thread.join big;
  Thread.join small;
  (match !big_outcome with
   | Some { Proto.outcome = Error { Proto.kind = Proto.Budget_exceeded; _ }; _ }
     -> ()
   | Some { Proto.outcome = Error { Proto.message; _ }; _ } ->
     Alcotest.fail ("wrong error: " ^ message)
   | Some { Proto.outcome = Ok _; _ } ->
     Alcotest.fail "over-budget request succeeded"
   | None -> Alcotest.fail "no response to the over-budget request");
  match !small_outcome with
  | Some response -> ignore (check_ok "small concurrent request" response)
  | None -> Alcotest.fail "no response to the small request"

let test_server_overload () =
  (* one worker busy + a full queue of one => the third concurrent
     request is rejected immediately with [overloaded] *)
  with_server ~workers:1 ~queue_capacity:1 @@ fun addr _server ->
  let sleep_args s = Json.Obj [ ("s", Json.Float s) ] in
  let first_outcome = ref None and second_outcome = ref None in
  let first =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             first_outcome :=
               Some (Client.call client ~op:"sleep" (sleep_args 0.6))))
      ()
  in
  Thread.delay 0.15;
  let second =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             second_outcome :=
               Some (Client.call client ~op:"sleep" (sleep_args 0.05))))
      ()
  in
  Thread.delay 0.15;
  (* worker occupied by the first, queue holding the second: this one
     must bounce without waiting *)
  let started = Unix.gettimeofday () in
  let third =
    Client.with_connection addr (fun client ->
        Client.call client ~op:"sleep" (sleep_args 0.05))
  in
  let reject_latency = Unix.gettimeofday () -. started in
  (match third.Proto.outcome with
   | Error { Proto.kind = Proto.Overloaded; _ } -> ()
   | Error { Proto.message; _ } -> Alcotest.fail ("wrong error: " ^ message)
   | Ok _ -> Alcotest.fail "third request should have been rejected");
  Alcotest.(check bool)
    (Printf.sprintf "fast reject (%.3fs)" reject_latency)
    true (reject_latency < 0.3);
  Thread.join first;
  Thread.join second;
  (match !first_outcome with
   | Some response -> ignore (check_ok "first (executing) request" response)
   | None -> Alcotest.fail "no response to the first request");
  match !second_outcome with
  | Some response -> ignore (check_ok "second (queued) request" response)
  | None -> Alcotest.fail "no response to the second request"

let test_server_drain () =
  with_server ~workers:1 @@ fun addr server ->
  let slow_outcome = ref None in
  let slow =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             slow_outcome :=
               Some
                 (Client.call client ~op:"sleep"
                    (Json.Obj [ ("s", Json.Float 0.4) ]))))
      ()
  in
  Thread.delay 0.1;
  (* connect before drain: existing connections keep their reader *)
  Client.with_connection addr @@ fun client ->
  Server.initiate_drain server;
  Thread.delay 0.1;
  let refused = Client.call client ~op:"ping" (Json.Obj []) in
  (match refused.Proto.outcome with
   | Error { Proto.kind = Proto.Draining; _ } -> ()
   | Error { Proto.message; _ } -> Alcotest.fail ("wrong error: " ^ message)
   | Ok _ -> Alcotest.fail "request admitted while draining");
  Thread.join slow;
  match !slow_outcome with
  | Some response -> ignore (check_ok "in-flight request drained" response)
  | None -> Alcotest.fail "in-flight request lost during drain"

let test_server_metrics () =
  with_server @@ fun addr _server ->
  Client.with_connection addr @@ fun client ->
  let result = check_ok "metrics" (Client.call client ~op:"metrics" (Json.Obj [])) in
  let server_stats =
    match Json.member "server" result with
    | Some (Json.Obj _ as s) -> s
    | _ -> Alcotest.fail "metrics response lacks server gauges"
  in
  List.iter
    (fun gauge ->
       match Json.member gauge server_stats with
       | Some (Json.Int _) -> ()
       | _ -> Alcotest.fail ("missing server gauge " ^ gauge))
    [ "queue_depth"; "in_flight"; "connections"; "accepted"; "requests";
      "workers"; "queue_capacity" ];
  match Json.member "metrics" result with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics response lacks the mv-obs snapshot"

(* ------------------------------------------------------------------ *)
(* Request-centric telemetry                                           *)

(* run [f] with telemetry on and a clean registry, resetting after
   (the registry is process-global, so each test starts from zero) *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Log.clear ();
  Fun.protect ~finally:Obs.reset f

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_server_request_trace () =
  with_obs @@ fun () ->
  (* client and server sides of a traced --remote call land in one
     trace sharing one request id: the client span records locally,
     the server ships its spans in the response and they are ingested
     under the remote pid *)
  with_server @@ fun addr _server ->
  let rid = "req-e2e-1" in
  let response =
    Obs.with_request rid (fun () ->
        Obs.span "remote.call" (fun () ->
            Client.with_connection addr (fun client ->
                Client.call client ~op:"generate"
                  ~trace:{ Proto.request_id = rid; collect_spans = true }
                  (model_args ()))))
  in
  ignore (check_ok "traced request" response);
  (match response.Proto.trace with
   | Some spans ->
     Alcotest.(check bool) "trace schema" true
       (Json.member "schema" spans
        = Some (Json.String Obs.trace_spans_schema));
     Obs.ingest_spans spans
   | None -> Alcotest.fail "response carries no spans");
  let spans = Obs.spans_for_request rid in
  let has name pid =
    List.exists
      (fun sp -> sp.Obs.sp_name = name && sp.Obs.sp_pid = pid)
      spans
  in
  Alcotest.(check bool) "client span, local pid" true (has "remote.call" 1);
  Alcotest.(check bool) "server span, remote pid" true (has "serve.request" 2);
  Alcotest.(check bool) "every span carries the request id" true
    (spans <> []
     && List.for_all (fun sp -> sp.Obs.sp_request = Some rid) spans)

let test_server_queue_metrics () =
  (* requests_rejected counts the overload fast-reject path and the
     queue-wait histogram sees every admitted request *)
  with_obs @@ fun () ->
  with_server ~workers:1 ~queue_capacity:1 @@ fun addr _server ->
  let rejected0 = Obs.counter_value (Obs.counter "serve.requests_rejected") in
  let sleep_args s = Json.Obj [ ("s", Json.Float s) ] in
  let first =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             ignore (Client.call client ~op:"sleep" (sleep_args 0.4))))
      ()
  in
  Thread.delay 0.1;
  let second =
    Thread.create
      (fun () ->
         Client.with_connection addr (fun client ->
             ignore (Client.call client ~op:"sleep" (sleep_args 0.05))))
      ()
  in
  Thread.delay 0.1;
  let third =
    Client.with_connection addr (fun client ->
        Client.call client ~op:"sleep" (sleep_args 0.05))
  in
  (match third.Proto.outcome with
   | Error { Proto.kind = Proto.Overloaded; _ } -> ()
   | _ -> Alcotest.fail "third request should have been rejected");
  Thread.join first;
  Thread.join second;
  Alcotest.(check bool) "requests_rejected counted" true
    (Obs.counter_value (Obs.counter "serve.requests_rejected") > rejected0);
  let waits = Obs.histogram_snapshot (Obs.histogram "serve.queue_wait_s") in
  Alcotest.(check bool) "queue_wait_s observed" true (waits.Obs.hs_count >= 2);
  (* the queued request's wait includes the first one's sleep *)
  Alcotest.(check bool) "queued request waited" true (waits.Obs.hs_max > 0.1);
  (* the reject left a structured log event *)
  Alcotest.(check bool) "overload rejection logged" true
    (List.exists
       (fun e ->
          e.Log.ev_level = Log.Warn
          && e.Log.ev_msg = "request rejected: overloaded")
       (Log.recent ()))

let test_server_metrics_text () =
  with_obs @@ fun () ->
  with_server @@ fun addr _server ->
  Client.with_connection addr @@ fun client ->
  ignore (check_ok "warm-up" (Client.call client ~op:"ping" (Json.Obj [])));
  let result =
    check_ok "metrics-text" (Client.call client ~op:"metrics-text" (Json.Obj []))
  in
  let exposition = Ops.texts_of_json result in
  Alcotest.(check int) "exit 0" 0 exposition.Ops.code;
  let has = contains exposition.Ops.out in
  Alcotest.(check bool) "terminated by EOF marker" true (has "# EOF\n");
  Alcotest.(check bool) "request-latency family present" true
    (has "# TYPE serve_request_latency_s histogram");
  Alcotest.(check bool) "per-op labels" true
    (has "serve_request_latency_s_bucket{op=\"ping\"");
  Alcotest.(check bool) "counters exposed as _total" true
    (has "serve_requests_total")

let test_server_logs_op () =
  with_obs @@ fun () ->
  with_server @@ fun addr _server ->
  Client.with_connection addr @@ fun client ->
  ignore (check_ok "ping" (Client.call client ~op:"ping" (Json.Obj [])));
  let result =
    check_ok "logs"
      (Client.call client ~op:"logs" (Json.Obj [ ("limit", Json.Int 100) ]))
  in
  Alcotest.(check bool) "mv-log-v1 schema" true
    (Json.member "schema" result = Some (Json.String Log.schema));
  match Json.member "events" result with
  | Some (Json.List events) ->
    Alcotest.(check bool) "admission event present" true
      (List.exists
         (fun e -> Json.member "msg" e = Some (Json.String "request admitted"))
         events)
  | _ -> Alcotest.fail "logs response lacks events"

let test_server_http_scrape () =
  (* a plain HTTP GET on the same listener answers the OpenMetrics
     exposition *)
  with_obs @@ fun () ->
  with_server @@ fun addr _server ->
  Client.with_connection addr (fun client ->
      ignore (check_ok "ping" (Client.call client ~op:"ping" (Json.Obj []))));
  let path = match addr with Proto.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let http_request = "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring fd http_request 0 (String.length http_request));
  let buffer = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buffer chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let reply = Buffer.contents buffer in
  let has = contains reply in
  Alcotest.(check bool) "HTTP 200" true
    (String.length reply > 15 && String.sub reply 0 15 = "HTTP/1.0 200 OK");
  Alcotest.(check bool) "openmetrics content type" true
    (has "application/openmetrics-text");
  Alcotest.(check bool) "exposition body" true (has "# EOF\n");
  Alcotest.(check bool) "scrape counted" true (has "serve_http_scrapes_total")

let suite =
  [
    Alcotest.test_case "addr parsing" `Quick test_addr_parsing;
    Alcotest.test_case "request round trip" `Quick test_request_round_trip;
    Alcotest.test_case "response round trip" `Quick test_response_round_trip;
    Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
    QCheck_alcotest.to_alcotest json_round_trip_prop;
    Alcotest.test_case "json adversarial inputs" `Quick test_json_adversarial;
    Alcotest.test_case "cache sweep_tmp" `Quick test_sweep_tmp;
    Alcotest.test_case "dispatch basics" `Quick test_dispatch_basics;
    Alcotest.test_case "dispatch budgets" `Quick test_dispatch_budget;
    Alcotest.test_case "check witnesses" `Quick test_check_witnesses;
    Alcotest.test_case "model faults are model_error" `Quick
      test_model_faults;
    Alcotest.test_case "server warm cache provenance" `Quick
      test_server_warm_cache;
    Alcotest.test_case "server budget vs concurrent request" `Quick
      test_server_budget_concurrent;
    Alcotest.test_case "server overload fast-reject" `Quick test_server_overload;
    Alcotest.test_case "server graceful drain" `Quick test_server_drain;
    Alcotest.test_case "server metrics" `Quick test_server_metrics;
    Alcotest.test_case "server request trace propagation" `Quick
      test_server_request_trace;
    Alcotest.test_case "server queue metrics and rejection logging" `Quick
      test_server_queue_metrics;
    Alcotest.test_case "server metrics-text exposition" `Quick
      test_server_metrics_text;
    Alcotest.test_case "server logs op" `Quick test_server_logs_op;
    Alcotest.test_case "server HTTP /metrics scrape" `Quick
      test_server_http_scrape;
  ]
