(* Spans recorded by the benchmark around its own calls into the
   library: name, start, end and parent, kept in memory. Nothing here
   touches Mv_obs; the library is observed only from outside.

   Recording is off unless [enabled] is set, so untraced runs pay one
   branch per call. Spans nest through one stack, used by the main
   thread only: the serve workload's client threads time their own
   requests and attach them through [record], with an explicit
   parent. *)

type t = {
  name : string;
  parent : t option;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable busy_ns : int64;
      (** time inside the span; for an aggregate, summed over its calls *)
  aggregate : bool;
      (** one node standing for many short calls (e.g. one per state),
          whose individual intervals are not kept *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let stack : t list ref = ref []
let now_ns () = Monotonic_clock.now ()

let reset () =
  recorded := [];
  stack := []

let current () = match !stack with s :: _ -> Some s | [] -> None

let child_of parent s = match s.parent with Some p -> p == parent | None -> false

let add span = Mutex.protect lock (fun () -> recorded := span :: !recorded)

let with_ name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        name;
        parent = current ();
        start_ns = now_ns ();
        stop_ns = 0L;
        busy_ns = 0L;
        aggregate = false;
      }
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        s.busy_ns <- Int64.sub s.stop_ns s.start_ns;
        stack := List.tl !stack;
        add s)
      f
  end

(* [accumulate name f] charges [f ()] to one aggregate child [name] of
   the current span, for calls too many and too short to keep one by
   one. *)
let accumulate name f =
  match (!enabled, current ()) with
  | false, _ | _, None -> f ()
  | true, Some parent ->
    let node =
      match
        List.find_opt
          (fun s -> s.aggregate && s.name = name && child_of parent s)
          !recorded
      with
      | Some s -> s
      | None ->
        let s =
          {
            name;
            parent = Some parent;
            start_ns = now_ns ();
            stop_ns = 0L;
            busy_ns = 0L;
            aggregate = true;
          }
        in
        add s;
        s
    in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        node.busy_ns <- Int64.add node.busy_ns (Int64.sub t1 t0);
        node.stop_ns <- t1)
      f

(* A span timed on another thread, attached under [parent]. *)
let record ?parent name ~start_ns ~stop_ns =
  if !enabled then
    add
      {
        name;
        parent;
        start_ns;
        stop_ns;
        busy_ns = Int64.sub stop_ns start_ns;
        aggregate = false;
      }

let all () = Mutex.protect lock (fun () -> List.rev !recorded)
let seconds ns = Int64.to_float ns /. 1e9
let duration_s s = seconds s.busy_ns

(* Length of the union of [intervals]. *)
let union_ns intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (Int64.add total (Int64.sub lb la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0L, None) sorted
  in
  match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total

(* Self time: the span's time minus the part of it its children cover.
   Children that ran concurrently (serve clients) are counted once. *)
let self_s spans s =
  let children = List.filter (child_of s) spans in
  let aggregates, plain = List.partition (fun c -> c.aggregate) children in
  let covered =
    Int64.add
      (union_ns (List.map (fun c -> (c.start_ns, c.stop_ns)) plain))
      (List.fold_left (fun acc c -> Int64.add acc c.busy_ns) 0L aggregates)
  in
  seconds (Int64.sub s.busy_ns covered)

(* Summed duration / self time of every span called [name]. *)
let total_s spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration_s s else acc)
    0.0 spans

let total_self_s spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. self_s spans s else acc)
    0.0 spans
