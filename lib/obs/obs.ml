(* Process-global telemetry registry. One mutex guards every mutable
   structure except counters (Atomic), the clock clamp (Atomic CAS)
   and the enabled flag; the recording paths that run on pool domains
   (counter bumps, histogram observations, progress repaints) are safe
   from any domain. *)

module Clock = struct
  (* One process-global clamp, maintained with a lock-free CAS-max
     over an int (62-bit nanoseconds reach past the year 2100): no
     reading on any domain can observe a timestamp below one already
     handed out on another domain, and — unlike a mutex — the clock
     stays safe to read from signal handlers and from inside other
     locked sections. *)
  let last = Atomic.make 0

  let rec clamp wall =
    let prev = Atomic.get last in
    if wall <= prev then prev
    else if Atomic.compare_and_set last prev wall then wall
    else clamp wall

  let now_ns () =
    Int64.of_int (clamp (int_of_float (Unix.gettimeofday () *. 1e9)))

  let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
end

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let is_enabled () = Atomic.get enabled_flag

(* Bumped by [reset]: a span that was open across a reset must not
   record itself into the fresh registry (its parent id points into
   the dropped world). *)
let epoch = Atomic.make 0

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  match f () with
  | v ->
    Mutex.unlock mutex;
    v
  | exception exn ->
    Mutex.unlock mutex;
    raise exn

let domain_id () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Request context                                                     *)

(* The id of the request currently being served on each domain; spans
   and log events opened while a context is set are tagged with it.
   [Mv_serve.Server] installs the context around request execution so
   every engine span recorded during a request carries its id. *)
let request_contexts : (int, string) Hashtbl.t = Hashtbl.create 8

let current_request () =
  locked (fun () -> Hashtbl.find_opt request_contexts (domain_id ()))

let set_request rid =
  locked (fun () ->
      match rid with
      | Some r -> Hashtbl.replace request_contexts (domain_id ()) r
      | None -> Hashtbl.remove request_contexts (domain_id ()))

let with_request rid f =
  let dom = domain_id () in
  let prev = locked (fun () -> Hashtbl.find_opt request_contexts dom) in
  set_request (Some rid);
  Fun.protect ~finally:(fun () -> set_request prev) f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type counter = { c_name : string; cell : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

let nb_buckets = 63

let bucket_of v =
  if not (v > 0.0) then 0
  else begin
    let _, e = Float.frexp v in
    (* v is in [2^(e-1), 2^e) *)
    let i = e + 30 in
    if i < 0 then 0 else if i > nb_buckets - 1 then nb_buckets - 1 else i
  end

let bucket_lt i =
  if i >= nb_buckets - 1 then infinity else Float.ldexp 1.0 (i - 30)

let bucket_ge i = if i <= 0 then 0.0 else bucket_lt (i - 1)

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let series_cap = 4096

type series = {
  s_name : string;
  s_values : float array;
  mutable s_length : int;
  mutable s_stride : int;
  mutable s_skip : int; (* pushes to drop before the next retained one *)
  mutable s_total : int;
}

let kinds : (string, string) Hashtbl.t = Hashtbl.create 64
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let series_table : (string, series) Hashtbl.t = Hashtbl.create 16

let get_or_create table kind name make =
  locked (fun () ->
      (match Hashtbl.find_opt kinds name with
       | Some k when k <> kind ->
         invalid_arg
           (Printf.sprintf "Obs: metric %S is a %s, requested as %s" name k
              kind)
       | Some _ -> ()
       | None -> Hashtbl.replace kinds name kind);
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace table name m;
        m)

let counter name =
  get_or_create counters "counter" name (fun () ->
      { c_name = name; cell = Atomic.make 0 })

let add c n = if is_enabled () && n <> 0 then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let counter_value c = Atomic.get c.cell

let gauge name =
  get_or_create gauges "gauge" name (fun () -> { g_name = name; g_value = 0.0 })

let set g v = if is_enabled () then locked (fun () -> g.g_value <- v)
let gauge_value g = g.g_value

let histogram name =
  get_or_create histograms "histogram" name (fun () ->
      {
        h_name = name;
        h_buckets = Array.make nb_buckets 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
      })

let observe h v =
  if is_enabled () then
    locked (fun () ->
        let b = bucket_of v in
        h.h_buckets.(b) <- h.h_buckets.(b) + 1;
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (int * int) list;
}

let histogram_snapshot h =
  locked (fun () ->
      let buckets = ref [] in
      for i = nb_buckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
      done;
      {
        hs_count = h.h_count;
        hs_sum = h.h_sum;
        hs_min = h.h_min;
        hs_max = h.h_max;
        hs_buckets = !buckets;
      })

(* Quantile estimation by log-bucket interpolation. The bucket is the
   one holding the ceil(q*count)-th smallest observation (buckets are
   exact counts, so this is exact); the value inside it is linearly
   interpolated between the bucket bounds, tightened by the recorded
   min/max. The estimate therefore always lands inside the exact
   sample quantile's bucket, and is monotone in q. *)
let quantile h q =
  locked (fun () ->
      if h.h_count = 0 then Float.nan
      else begin
        let q = Float.max 0.0 (Float.min 1.0 q) in
        let target = Float.max 1.0 (q *. float_of_int h.h_count) in
        let rec find i cum =
          if i >= nb_buckets - 1 then (i, cum)
          else if
            h.h_buckets.(i) > 0
            && float_of_int (cum + h.h_buckets.(i)) >= target
          then (i, cum)
          else find (i + 1) (cum + h.h_buckets.(i))
        in
        let b, before = find 0 0 in
        let lo = Float.max (bucket_ge b) h.h_min in
        let hi = Float.min (bucket_lt b) h.h_max in
        let lo = Float.min lo hi in
        let inside = h.h_buckets.(b) in
        let frac =
          if inside = 0 then 1.0
          else
            Float.max 0.0
              (Float.min 1.0
                 ((target -. float_of_int before) /. float_of_int inside))
        in
        lo +. (frac *. (hi -. lo))
      end)

let series name =
  get_or_create series_table "series" name (fun () ->
      {
        s_name = name;
        s_values = Array.make series_cap 0.0;
        s_length = 0;
        s_stride = 1;
        s_skip = 0;
        s_total = 0;
      })

let push s v =
  if is_enabled () then
    locked (fun () ->
        s.s_total <- s.s_total + 1;
        if s.s_skip > 0 then s.s_skip <- s.s_skip - 1
        else begin
          if s.s_length = series_cap then begin
            (* decimate: keep every other retained point *)
            for i = 0 to (series_cap / 2) - 1 do
              s.s_values.(i) <- s.s_values.(2 * i)
            done;
            s.s_length <- series_cap / 2;
            s.s_stride <- s.s_stride * 2
          end;
          s.s_values.(s.s_length) <- v;
          s.s_length <- s.s_length + 1;
          s.s_skip <- s.s_stride - 1
        end)

let series_values s =
  locked (fun () ->
      ( s.s_total,
        s.s_stride,
        List.init s.s_length (fun i -> s.s_values.(i)) ))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_domain : int;
  sp_pid : int;
  sp_request : string option;
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_args : (string * Json.t) list;
}

let local_pid = 1
let remote_pid = 2
let next_span_id = Atomic.make 0

(* Completed spans live in a bounded ring: a long-running daemon
   records one span tree per request forever, so an unbounded list
   would be a leak. The ring keeps the most recent [span_cap]
   completions in order. *)
let span_cap = 32768
let span_ring : span option array = Array.make span_cap None
let span_total = ref 0

let record_span sp =
  locked (fun () ->
      span_ring.(!span_total mod span_cap) <- Some sp;
      span_total := !span_total + 1)

(* per-domain stack of open span ids (innermost first) *)
let open_stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let span ?(args = []) name f =
  if not (is_enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_span_id 1 in
    let dom = domain_id () in
    let epoch0 = Atomic.get epoch in
    let parent, request =
      locked (fun () ->
          let stack =
            Option.value ~default:[] (Hashtbl.find_opt open_stacks dom)
          in
          Hashtbl.replace open_stacks dom (id :: stack);
          ( (match stack with [] -> None | p :: _ -> Some p),
            Hashtbl.find_opt request_contexts dom ))
    in
    let t0 = Clock.now_ns () in
    let record () =
      let t1 = Clock.now_ns () in
      if Atomic.get epoch = epoch0 then begin
        locked (fun () ->
            match Hashtbl.find_opt open_stacks dom with
            | Some (top :: rest) when top = id ->
              Hashtbl.replace open_stacks dom rest
            | Some stack ->
              Hashtbl.replace open_stacks dom
                (List.filter (fun i -> i <> id) stack)
            | None -> ());
        record_span
          {
            sp_id = id;
            sp_parent = parent;
            sp_name = name;
            sp_domain = dom;
            sp_pid = local_pid;
            sp_request = request;
            sp_start_ns = t0;
            sp_dur_ns = Int64.sub t1 t0;
            sp_args = args;
          }
      end
    in
    match f () with
    | v ->
      record ();
      v
    | exception exn ->
      record ();
      raise exn
  end

let spans () =
  locked (fun () ->
      let total = !span_total in
      let first = max 0 (total - span_cap) in
      List.filter_map
        (fun i -> span_ring.(i mod span_cap))
        (List.init (total - first) (fun k -> first + k)))

let spans_for_request rid =
  List.filter (fun sp -> sp.sp_request = Some rid) (spans ())

let span_total_s name =
  List.fold_left
    (fun acc sp ->
       if sp.sp_name = name then acc +. (Int64.to_float sp.sp_dur_ns /. 1e9)
       else acc)
    0.0 (spans ())

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)

let progress_flag = Atomic.make false
let progress_last = ref 0L
let progress_live = ref false

let set_progress on = Atomic.set progress_flag on
let progress_enabled () = Atomic.get progress_flag

let progress f =
  if Atomic.get progress_flag then begin
    let now = Clock.now_ns () in
    let msg =
      locked (fun () ->
          if Int64.sub now !progress_last >= 200_000_000L then begin
            progress_last := now;
            progress_live := true;
            Some (f ())
          end
          else None)
    in
    match msg with
    | Some msg ->
      Printf.eprintf "\r\027[K%s%!" msg
    | None -> ()
  end

let progress_end () =
  let live =
    locked (fun () ->
        let was = !progress_live in
        progress_live := false;
        was)
  in
  if live then Printf.eprintf "\n%!"

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)

let reset () =
  Atomic.set enabled_flag false;
  Atomic.set progress_flag false;
  (* orphan spans still open on (possibly idle) pool domains: their
     record must drop itself rather than land in the fresh registry *)
  Atomic.incr epoch;
  locked (fun () ->
      Hashtbl.reset kinds;
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms;
      Hashtbl.reset series_table;
      Hashtbl.reset open_stacks;
      Hashtbl.reset request_contexts;
      Array.fill span_ring 0 span_cap None;
      span_total := 0;
      progress_live := false;
      progress_last := 0L)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let sorted_fold table extract =
  locked (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, m) -> (name, extract m))

let all_counters () = sorted_fold counters (fun c -> Atomic.get c.cell)
let all_gauges () = sorted_fold gauges (fun g -> g.g_value)
let all_histograms () = sorted_fold histograms histogram_snapshot

let finite f = if f = infinity || f = neg_infinity || f <> f then 0.0 else f

let histogram_json h =
  let snapshot = histogram_snapshot h in
  let buckets =
    List.map
      (fun (i, count) ->
         Json.Obj
           [
             ( "lt",
               if i = nb_buckets - 1 then Json.Null
               else Json.Float (bucket_lt i) );
             ("count", Json.Int count);
           ])
      snapshot.hs_buckets
  in
  Json.Obj
    [
      ("count", Json.Int snapshot.hs_count);
      ("sum", Json.Float (finite snapshot.hs_sum));
      ("min", Json.Float (finite snapshot.hs_min));
      ("max", Json.Float (finite snapshot.hs_max));
      ("p50", Json.Float (finite (quantile h 0.50)));
      ("p90", Json.Float (finite (quantile h 0.90)));
      ("p99", Json.Float (finite (quantile h 0.99)));
      ("buckets", Json.List buckets);
    ]

let series_json s =
  let total, stride, values = series_values s in
  Json.Obj
    [
      ("total", Json.Int total);
      ("stride", Json.Int stride);
      ("values", Json.List (List.map (fun v -> Json.Float (finite v)) values));
    ]

(* aggregate span timings by name: count, total and max seconds *)
let timings () =
  let table : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
       let s = Int64.to_float sp.sp_dur_ns /. 1e9 in
       let count, total, mx =
         Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt table sp.sp_name)
       in
       Hashtbl.replace table sp.sp_name (count + 1, total +. s, max mx s))
    (spans ());
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let metrics_schema = "mv-obs-metrics-v1"

(* Peak RSS (getrusage maxrss, monotone high-water mark). The gauge is
   refreshed lazily, just before every snapshot/exposition, so each
   exported view carries the peak as of the moment it was taken. *)
external maxrss_kb : unit -> int = "mv_obs_maxrss_kb" [@@noalloc]

let refresh_process_gauges () =
  if is_enabled () then
    set (gauge "process.maxrss_kb") (float_of_int (maxrss_kb ()))

let metrics_json () =
  refresh_process_gauges ();
  Json.Obj
    [
      ("schema", Json.String metrics_schema);
      ( "counters",
        Json.Obj
          (sorted_fold counters (fun c -> Json.Int (Atomic.get c.cell))) );
      ( "gauges",
        Json.Obj (sorted_fold gauges (fun g -> Json.Float (finite g.g_value)))
      );
      ("histograms", Json.Obj (sorted_fold histograms histogram_json));
      ("series", Json.Obj (sorted_fold series_table series_json));
      ( "timings",
        Json.Obj
          (List.map
             (fun (name, (count, total, mx)) ->
                ( name,
                  Json.Obj
                    [
                      ("count", Json.Int count);
                      ("total_s", Json.Float (finite total));
                      ("max_s", Json.Float (finite mx));
                    ] ))
             (timings ())) );
    ]

(* ------------------------------------------------------------------ *)
(* Span interchange (client/server trace stitching)                    *)

let trace_spans_schema = "mv-trace-spans-v1"

let span_json sp =
  Json.Obj
    [
      ("name", Json.String sp.sp_name);
      ("domain", Json.Int sp.sp_domain);
      ("start_ns", Json.Int (Int64.to_int sp.sp_start_ns));
      ("dur_ns", Json.Int (Int64.to_int sp.sp_dur_ns));
      ( "parent",
        match sp.sp_parent with Some p -> Json.Int p | None -> Json.Null );
      ( "request_id",
        match sp.sp_request with Some r -> Json.String r | None -> Json.Null
      );
      ("args", Json.Obj sp.sp_args);
    ]

let spans_json spans =
  Json.Obj
    [
      ("schema", Json.String trace_spans_schema);
      ("spans", Json.List (List.map span_json spans));
    ]

(* Ingest spans shipped by a peer (a daemon answering a traced
   request): they are re-recorded here under a distinct trace pid so a
   single Chrome trace shows the client and server timelines side by
   side. Client and daemon share the machine's wall clock, so the
   absolute nanosecond timestamps line up across the two pids. *)
let ingest_spans json =
  if is_enabled () then begin
    let spans =
      match Json.member "spans" json with Some (Json.List l) -> l | _ -> []
    in
    List.iter
      (fun sp ->
         let str name =
           match Json.member name sp with
           | Some (Json.String s) -> Some s
           | _ -> None
         in
         let int name =
           match Json.member name sp with
           | Some (Json.Int n) -> Some n
           | _ -> None
         in
         match (str "name", int "start_ns", int "dur_ns") with
         | Some name, Some start_ns, Some dur_ns ->
           record_span
             {
               sp_id = Atomic.fetch_and_add next_span_id 1;
               sp_parent = None;
               sp_name = name;
               sp_domain = Option.value ~default:0 (int "domain");
               sp_pid = remote_pid;
               sp_request = str "request_id";
               sp_start_ns = Int64.of_int start_ns;
               sp_dur_ns = Int64.of_int dur_ns;
               sp_args = [];
             }
         | _ -> ())
      spans
  end

let trace_json () =
  let all = spans () in
  let origin =
    List.fold_left
      (fun acc sp -> if Int64.compare sp.sp_start_ns acc < 0 then sp.sp_start_ns else acc)
      (match all with [] -> 0L | sp :: _ -> sp.sp_start_ns)
      all
  in
  let micro ns = Int64.to_float ns /. 1e3 in
  let events =
    List.map
      (fun sp ->
         let args =
           (match sp.sp_parent with
            | Some p -> [ ("parent", Json.Int p) ]
            | None -> [])
           @ (match sp.sp_request with
              | Some r -> [ ("request_id", Json.String r) ]
              | None -> [])
           @ sp.sp_args
         in
         Json.Obj
           [
             ("name", Json.String sp.sp_name);
             ("cat", Json.String "mv");
             ("ph", Json.String "X");
             ("ts", Json.Float (micro (Int64.sub sp.sp_start_ns origin)));
             ("dur", Json.Float (micro sp.sp_dur_ns));
             ("pid", Json.Int sp.sp_pid);
             ("tid", Json.Int sp.sp_domain);
             ("args", Json.Obj args);
           ])
      all
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]

let summary () =
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) -> line "counter    %-32s %d" name v)
    (sorted_fold counters (fun c -> Atomic.get c.cell));
  List.iter
    (fun (name, v) -> line "gauge      %-32s %g" name v)
    (sorted_fold gauges (fun g -> g.g_value));
  List.iter
    (fun (name, h) ->
       line "histogram  %-32s count %d sum %g min %g max %g p50 %g p99 %g"
         name h.h_count (finite h.h_sum) (finite h.h_min) (finite h.h_max)
         (finite (quantile h 0.50)) (finite (quantile h 0.99)))
    (sorted_fold histograms Fun.id);
  List.iter
    (fun (name, s) ->
       let total, stride, values = series_values s in
       let last = match List.rev values with [] -> 0.0 | v :: _ -> v in
       line "series     %-32s %d point(s), stride %d, last %g" name total
         stride last)
    (sorted_fold series_table Fun.id);
  List.iter
    (fun (name, (count, total, mx)) ->
       line "span       %-32s %d run(s), total %.4fs, max %.4fs" name count
         total mx)
    (timings ());
  Buffer.contents buffer

let find_counter name =
  locked (fun () -> Hashtbl.find_opt counters name)
  |> Option.map (fun c -> Atomic.get c.cell)

let find_gauge name =
  locked (fun () -> Hashtbl.find_opt gauges name)
  |> Option.map (fun g -> g.g_value)

let headlines () =
  let items = ref [] in
  let add key value = items := (key, value) :: !items in
  (match find_counter "explore.states" with
   | Some states when states > 0 ->
     add "states explored" (string_of_int states);
     (match find_counter "explore.transitions" with
      | Some t -> add "transitions" (string_of_int t)
      | None -> ());
     let total = span_total_s "explore" in
     if total > 0.0 then
       add "states/s" (Printf.sprintf "%.0f" (float_of_int states /. total))
   | Some _ | None -> ());
  let positive name =
    match find_counter name with
    | Some n when n > 0 -> Some n
    | Some _ | None -> None
  in
  let direct = positive "solver.direct"
  and iterations = positive "solver.iterations" in
  Option.iter (fun n -> add "direct solves" (string_of_int n)) direct;
  Option.iter (fun n -> add "solver iterations" (string_of_int n)) iterations;
  if Option.is_some direct || Option.is_some iterations then
    (match find_gauge "solver.final_residual" with
     | Some r -> add "final residual" (Printf.sprintf "%.3g" r)
     | None -> ());
  if Option.is_some iterations then
    (match find_gauge "solver.contraction" with
     | Some r when r > 0.0 ->
       add "contraction/iter" (Printf.sprintf "%.4f" r)
     | Some _ | None -> ());
  (match find_counter "des.events" with
   | Some n when n > 0 -> add "DES events" (string_of_int n)
   | Some _ | None -> ());
  List.rev !items
