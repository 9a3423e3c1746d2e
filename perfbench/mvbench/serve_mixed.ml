(* serve_mixed: an in-process mvald (Mv_serve.Server on a Unix socket,
   a fresh artifact cache, one worker per core) under a closed loop of
   two client connections from this process. Each client sends its
   seeded plan of [minimize] requests over 4-5-buffer chains: about one
   in four names a model never sent before (cold: explore, branching,
   cache writes), the rest replay a model the same client already got
   back (warm: cache reads). Every pass replays the plan against an
   emptied cache, so passes are alike. A pass is 500 requests: every
   lookup and store rewrites the cache index, so a pass costs more than
   twice as much at twice the length, and a run needs ten or more
   passes to find a quiet stretch of the shared machine. The only
   workload with admission, queueing and cache reads beside writes: p50
   measures the warm path, p98 (ten samples beyond it per pass) the
   cold path plus queueing. *)

module Json = Harness.Json
module Proto = Mv_serve.Proto
module Server = Mv_serve.Server
module Client = Mv_serve.Client
module Obs = Mv_obs.Obs

let clients = 2

let minimize_request ~seed (r : Models.request) =
  Json.Obj
    [
      ( "model",
        Json.Obj
          [
            ("kind", Json.String "mvl");
            ("text", Json.String (Models.serve_model_text ~seed r));
          ] );
    ]

let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1)

(* One answered request: its timing and whether everything about the
   response was right. *)
type answer = {
  request : Models.request;
  args : Json.t;
  start_ns : int64;
  stop_ns : int64;
  response : Proto.response option;
  ok : bool;
}

let latency a = Span.seconds (Int64.sub a.stop_ns a.start_ns)

let check (r : Models.request) (response : Proto.response) =
  let int_field name result =
    match Json.member name result with Some (Json.Int n) -> n | _ -> -1
  in
  match response.Proto.outcome with
  | Error e ->
    prerr_endline ("request failed: " ^ e.Proto.message);
    false
  | Ok result ->
    let sizes =
      int_field "states_before" result = pow3 r.buffers
      && int_field "states" result = (2 * r.buffers) + 1
    in
    (* cold: generate and minimize both miss; warm: both hit *)
    let provenance = if r.cold then Some (0, 2) else Some (2, 0) in
    if response.Proto.cache <> provenance then
      prerr_endline
        (Printf.sprintf "model %d (%s): cache provenance %s" r.model
           (if r.cold then "cold" else "warm")
           (match response.Proto.cache with
            | Some (h, m) -> Printf.sprintf "%d hit(s), %d miss(es)" h m
            | None -> "missing"));
    sizes && response.Proto.cache = provenance

(* A sampled warm response must be byte-equal to a local run of the
   same request. *)
let sample_matches answers =
  match List.find_opt (fun a -> not a.request.Models.cold) answers with
  | None -> true
  | Some a ->
    let local =
      Mv_serve.Ops.dispatch
        { Proto.id = 0; op = "minimize"; args = a.args; budget = None; trace = None }
    in
    let same =
      match (local, a.response) with
      | Ok local, Some { Proto.outcome = Ok remote; _ } ->
        Json.to_string local = Json.to_string remote
      | _ -> false
    in
    if not same then prerr_endline "sampled response differs from the local run";
    same

(* Layer metrics of a traced pass: exec times and cache provenance from
   the responses, queue waits and cache spans from the registry the
   in-process server records into. *)
let layer_metrics answers =
  let exec =
    List.filter_map
      (fun a -> Option.map (fun (r : Proto.response) -> r.Proto.elapsed_s) a.response)
      answers
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) a ->
        match a.response with
        | Some { Proto.cache = Some (h', m'); _ } -> (h + h', m + m')
        | _ -> (h, m))
      (0, 0) answers
  in
  let wait = Obs.histogram "serve.queue_wait_s" in
  let waits = Obs.histogram_snapshot wait in
  let sum = List.fold_left ( +. ) 0.0 in
  let latency_s = sum (List.map latency answers) and exec_s = sum exec in
  [
    ("store.cache.hits", float hits);
    ("store.cache.misses", float misses);
    ("store.cache.hit_ratio", float hits /. float (max 1 (hits + misses)));
    ("store.cache.find_s", Obs.span_total_s "cache.find");
    ("store.cache.store_s", Obs.span_total_s "cache.store");
    ("serve.queue.wait_p50_ms", 1000.0 *. Obs.quantile wait 0.50);
    ("serve.queue.wait_p99_ms", 1000.0 *. Obs.quantile wait 0.99);
    ("serve.exec.p50_ms", 1000.0 *. Harness.percentile 0.50 exec);
    ("serve.exec.p99_ms", 1000.0 *. Harness.percentile 0.99 exec);
    ( "serve.proto.overhead_ms",
      1000.0 *. (latency_s -. exec_s -. waits.Obs.hs_sum) /. float (max 1 (List.length answers))
    );
  ]

(* one worker per core *)
let workers = Domain.recommended_domain_count ()

let setup ~size ~seed ~dir =
  let per_client = match size with Harness.Full -> 120 | Harness.Smoke -> 12 in
  (* the inputs: each client's plan with its model texts, made once *)
  let plans =
    Array.init clients (fun client ->
        Models.client_plan ~seed ~clients ~client ~count:per_client
        |> List.map (fun r -> (r, minimize_request ~seed r)))
  in
  let cache = Mv_store.Cache.open_dir (Filename.concat dir "cache") in
  let server =
    Server.create
      {
        Server.addr = Proto.Unix_path (Filename.concat dir "mvald.sock");
        workers;
        queue_capacity = Server.default_queue_capacity;
        max_frame = Proto.default_max_frame;
        cache = Some cache;
        slow_s = Server.default_slow_s;
      }
  in
  let server_thread = Thread.create Server.run server in
  let connections = Array.init clients (fun _ -> Client.connect (Server.addr server)) in
  let call c (request, args) =
    let start_ns = Span.now_ns () in
    match Client.call connections.(c) ~op:"minimize" args with
    | response ->
      let stop_ns = Span.now_ns () in
      { request; args; start_ns; stop_ns; response = Some response; ok = check request response }
    | exception Client.Error msg ->
      prerr_endline ("transport error: " ^ msg);
      { request; args; start_ns; stop_ns = Span.now_ns (); response = None; ok = false }
  in
  let last_pass = ref [] in
  let pass ~traced =
    let answers = Array.make clients [] in
    List.init clients (Thread.create (fun c -> answers.(c) <- List.map (call c) plans.(c)))
    |> List.iter Thread.join;
    let all = List.concat (Array.to_list answers) in
    last_pass := all;
    let layers =
      if not traced then []
      else begin
        let root = Span.current () in
        List.iter
          (fun a ->
            Span.record ?parent:root "serve.request" ~start_ns:a.start_ns ~stop_ns:a.stop_ns)
          all;
        layer_metrics all
      end
    in
    {
      Harness.latencies = List.map latency all;
      attempted = List.length all;
      failed = List.length (List.filter (fun a -> not a.ok) all);
      answers = [];
      layers;
    }
  in
  (* untimed: the slow byte-equality check, then empty the cache so the
     next pass starts cold again *)
  let finish ~traced:_ =
    let sampled = sample_matches !last_pass in
    ignore (Mv_store.Cache.clear cache);
    ([], if sampled then 0 else 1)
  in
  let close () =
    Array.iter Client.close connections;
    Server.initiate_drain server;
    Thread.join server_thread;
    Harness.remove_tree dir
  in
  {
    Harness.pass;
    finish;
    orphans =
      (fun () -> List.filter (fun f -> Harness.contains ~sub:".tmp." f) (Harness.files dir));
    close;
  }

let workload = { Harness.name = "serve_mixed"; cores = workers; setup }
