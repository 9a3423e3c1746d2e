module Bitset = Mv_util.Bitset

type t = { labels : string list; destination : int }

(* BFS with per-state parent pointers, stopping at the first state
   [stop] accepts (states are popped in BFS order, so its path is a
   shortest one); the parent array stores the (predecessor, label) pair
   used to discover each state. *)
let bfs lts ~stop =
  let n = Lts.nb_states lts in
  let parent = Array.make n None in
  let seen = Bitset.create n in
  let queue = Queue.create () in
  Bitset.add seen (Lts.initial lts);
  Queue.add (Lts.initial lts) queue;
  let rec loop () =
    if Queue.is_empty queue then None
    else begin
      let s = Queue.pop queue in
      if stop s then Some s
      else begin
        Lts.iter_out lts s (fun label dst ->
            if not (Bitset.mem seen dst) then begin
              Bitset.add seen dst;
              parent.(dst) <- Some (s, label);
              Queue.add dst queue
            end);
        loop ()
      end
    end
  in
  let found = loop () in
  (parent, found)

let rebuild lts parent destination =
  let labels = ref [] in
  let rec walk s =
    match parent.(s) with
    | None -> ()
    | Some (pred, label) ->
      labels := Label.name (Lts.labels lts) label :: !labels;
      walk pred
  in
  walk destination;
  { labels = !labels; destination }

let shortest_to_state lts ~goal =
  let parent, found = bfs lts ~stop:goal in
  Option.map (rebuild lts parent) found

let shortest_to_action lts ~action =
  (* the shortest trace ending in a matching action is the shortest
     path to a source of a matching transition, plus that transition *)
  let matching s =
    Lts.fold_out lts s
      (fun label dst acc ->
         match acc with
         | Some _ -> acc
         | None ->
           let name = Label.name (Lts.labels lts) label in
           if action name then Some (name, dst) else None)
      None
  in
  let parent, found = bfs lts ~stop:(fun s -> matching s <> None) in
  Option.map
    (fun s ->
       let name, dst = Option.get (matching s) in
       let prefix = rebuild lts parent s in
       { labels = prefix.labels @ [ name ]; destination = dst })
    found

let shortest_to_deadlock lts =
  shortest_to_state lts ~goal:(fun s -> Lts.out_degree lts s = 0)

let shortest_to_violation lts ~sat =
  shortest_to_state lts ~goal:(fun s -> not (Bitset.mem sat s))

let to_string t =
  match t.labels with [] -> "<empty>" | labels -> String.concat "; " labels
