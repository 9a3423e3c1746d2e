module Obs = Mv_obs.Obs

module type STATE = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'state outcome = {
  lts : Lts.t;
  states : 'state array;
  truncated : bool;
}

exception Too_many_states of int

type ooc_outcome = {
  ooc_states : int;
  ooc_transitions : int;
  ooc_truncated : bool;
}

module Make (S : STATE) = struct
  module Table = Hashtbl.Make (S)

  let no_tick ~states:_ = ()

  let run ?(tick = no_tick) ?(max_states = 1_000_000) ?(on_truncate = `Stop)
      ?(expect = 1024) ~initial ~successors () =
    Obs.span "explore" @@ fun () ->
    let frontier_series = Obs.series "explore.frontier" in
    let ids = Table.create (max 1024 (min expect max_states)) in
    let states = ref [] in
    let nb = ref 0 in
    let dedup = ref 0 in
    let nb_transitions = ref 0 in
    let truncated = ref false in
    let frontier = Queue.create () in
    let id_of state =
      match Table.find_opt ids state with
      | Some id ->
        incr dedup;
        Some id
      | None ->
        if !nb >= max_states then begin
          (match on_truncate with
           | `Raise -> raise (Too_many_states max_states)
           | `Stop -> truncated := true);
          None
        end
        else begin
          let id = !nb in
          incr nb;
          Table.add ids state id;
          states := state :: !states;
          Queue.add (id, state) frontier;
          Some id
        end
    in
    (match id_of initial with
     | Some 0 -> ()
     | Some _ | None -> assert false);
    let labels = Label.create () in
    let transitions = ref [] in
    let expansions = ref 0 in
    while not (Queue.is_empty frontier) do
      let src, state = Queue.pop frontier in
      incr expansions;
      if !expansions land 63 = 0 then tick ~states:!nb;
      if !expansions land 1023 = 1 then begin
        Obs.push frontier_series (float_of_int (Queue.length frontier));
        Obs.progress (fun () ->
            Printf.sprintf "explore: %d states, %d transitions, frontier %d"
              !nb !nb_transitions (Queue.length frontier))
      end;
      let moves = successors state in
      List.iter
        (fun (label, dst_state) ->
           match id_of dst_state with
           | Some dst ->
             incr nb_transitions;
             transitions := (src, Label.intern labels label, dst) :: !transitions
           | None -> ())
        moves
    done;
    Obs.add (Obs.counter "explore.states") !nb;
    Obs.add (Obs.counter "explore.transitions") !nb_transitions;
    Obs.add (Obs.counter "explore.dedup_hits") !dedup;
    let states_array = Array.of_list (List.rev !states) in
    let lts = Lts.make ~nb_states:!nb ~initial:0 ~labels !transitions in
    { lts; states = states_array; truncated = !truncated }

  (* --------------------------------------------------------------- *)
  (* Out-of-core exploration.

     Level-synchronous BFS that never materializes the LTS: the seen
     set lives in a {!Spill} (bloom + bounded hot table + sorted
     on-disk runs) and each state's transitions are pushed to the
     caller's [emit] sink exactly once, in state-id order — the glue
     layer connects that to a streaming .mvb writer.

     The result is byte-identical to [run]'s LTS. The delicate part is
     state numbering: a bloom false positive must not disturb the
     order ids are assigned in, so {e no} id is assigned during
     successor generation. Instead each level records its transition
     log against per-level cells, cold lookups are batched through
     [Spill.resolve], and a final sequential walk over the log — same
     frontier order, same successor order as [run] — assigns ids at
     first encounter, interns labels on accepted transitions only, and
     applies the truncation budget. Every
     decision the sequential engine makes per transition is replayed
     at the same position in the same order.

     Memory: bloom bits + hot budget + one BFS level (its states,
     encodings and transition log). Everything colder is sequential
     disk I/O, so RAM is bounded by the widest level, not the state
     count. States are keyed by their [Marshal] encoding (no sharing),
     which must be injective modulo [S.equal] — true for the tuple /
     int-array states every generator in this repository uses. *)

  type cell = {
    cl_state : S.t;
    cl_enc : string;
    mutable cl_id : int; (* -1 = pending-new, >= 0 = known *)
  }

  type target = Tid of int | Tcell of cell

  let run_ooc ?(tick = no_tick) ?(max_states = 1_000_000)
      ?(on_truncate = `Stop) ?(expect = 1 lsl 20)
      ?(hot_budget_bytes = 64 lsl 20) ~scratch_dir ~labels ~emit ~initial
      ~successors () =
    Obs.span "explore.ooc" @@ fun () ->
    let frontier_series = Obs.series "explore.frontier" in
    let seen =
      Spill.create ~dir:scratch_dir ~expect:(min expect max_states)
        ~hot_budget_bytes ()
    in
    Fun.protect ~finally:(fun () -> Spill.close seen) @@ fun () ->
    let encode s = Marshal.to_string s [ Marshal.No_sharing ] in
    let nb = ref 0 in
    let nb_transitions = ref 0 in
    let dedup = ref 0 in
    let truncated = ref false in
    Spill.add seen (encode initial) 0;
    nb := 1;
    let frontier = ref [| initial |] in
    while Array.length !frontier > 0 do
      tick ~states:!nb;
      Obs.push frontier_series (float_of_int (Array.length !frontier));
      Obs.progress (fun () ->
          Printf.sprintf "explore (ooc): %d states, %d transitions, frontier %d"
            !nb !nb_transitions (Array.length !frontier));
      (* 1. generate: record the level's transition log against cells,
         assigning no ids *)
      let cells : (string, cell) Hashtbl.t = Hashtbl.create 4096 in
      let maybes = ref [] in
      let log =
        Array.map
          (fun state ->
            List.map
              (fun (label, dst_state) ->
                let enc = encode dst_state in
                match Hashtbl.find_opt cells enc with
                | Some c -> (label, Tcell c)
                | None -> (
                  match Spill.find_hot seen enc with
                  | Some id -> (label, Tid id)
                  | None ->
                    let c = { cl_state = dst_state; cl_enc = enc; cl_id = -1 } in
                    Hashtbl.add cells enc c;
                    if not (Spill.definitely_new seen enc) then
                      maybes := c :: !maybes;
                    (label, Tcell c)))
              (successors state))
          !frontier
      in
      (* 2. resolve: one batched cold lookup for the bloom-positive
         misses *)
      (match !maybes with
       | [] -> ()
       | maybes ->
         let maybes = Array.of_list maybes in
         let queries = Array.map (fun c -> (c.cl_enc, ref (-1))) maybes in
         Spill.resolve seen queries;
         Array.iteri
           (fun i c ->
             let _, slot = queries.(i) in
             if !slot >= 0 then c.cl_id <- !slot)
           maybes);
      (* 3. assign and emit: replay the sequential engine's decisions
         in its exact order *)
      let next = ref [] in
      Array.iter
        (fun moves ->
          let out = ref [] in
          List.iter
            (fun (label, tgt) ->
              let dst =
                match tgt with
                | Tid id ->
                  incr dedup;
                  Some id
                | Tcell c ->
                  if c.cl_id >= 0 then begin
                    incr dedup;
                    Some c.cl_id
                  end
                  else if !nb >= max_states then begin
                    (match on_truncate with
                     | `Raise -> raise (Too_many_states max_states)
                     | `Stop -> truncated := true);
                    None
                  end
                  else begin
                    c.cl_id <- !nb;
                    incr nb;
                    Spill.add seen c.cl_enc c.cl_id;
                    next := c.cl_state :: !next;
                    Some c.cl_id
                  end
              in
              match dst with
              | Some dst ->
                incr nb_transitions;
                out := (Label.intern labels label, dst) :: !out
              | None -> ())
            moves;
          emit (Array.of_list (List.rev !out)))
        log;
      frontier := Array.of_list (List.rev !next)
    done;
    Obs.add (Obs.counter "explore.states") !nb;
    Obs.add (Obs.counter "explore.transitions") !nb_transitions;
    Obs.add (Obs.counter "explore.dedup_hits") !dedup;
    {
      ooc_states = !nb;
      ooc_transitions = !nb_transitions;
      ooc_truncated = !truncated;
    }
end
