module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

type node =
  | Leaf of string * Lts.t
  | Par of string list * node * node
  | Hide of string list * node
  | Rename of (string * string) list * node

type strategy = [ `Monolithic | `Compositional ]
type plan = [ `Naive | `Greedy ]

type step = { description : string; states : int; transitions : int }

type report = {
  result : Lts.t;
  steps : step list;
  peak_states : int;
}

let rec describe = function
  | Leaf (name, _) -> name
  | Par (gates, a, b) ->
    Printf.sprintf "(%s |[%s]| %s)" (describe a) (String.concat "," gates)
      (describe b)
  | Hide (gates, n) ->
    Printf.sprintf "(hide %s in %s)" (String.concat "," gates) (describe n)
  | Rename (_, n) -> Printf.sprintf "(rename in %s)" (describe n)

(* ---- planner cost model ------------------------------------------ *)

(* The gates a component can still engage in: the gate parts of its
   label alphabet. *)
let alphabet lts =
  let labels = Lts.labels lts in
  let gates = Hashtbl.create 16 in
  for l = 1 to Label.count labels - 1 do
    Hashtbl.replace gates (Label.gate (Label.name labels l)) ()
  done;
  gates

(* Interface-size estimate of [a |[sync]| b]: the free product scaled
   down by how much of [sync] actually couples the two components.
   Every shared sync gate forces a rendezvous, cutting the reachable
   product roughly by the interleaving factor it removes; a pair that
   shares no sync gate interleaves freely and gets the full [sa * sb]
   — exactly the composition a planner should postpone. *)
let estimate ~sync a b =
  let ga = alphabet a and gb = alphabet b in
  let shared =
    List.fold_left
      (fun acc g ->
        if Hashtbl.mem ga g && Hashtbl.mem gb g then acc + 1 else acc)
      0
      (List.sort_uniq compare sync)
  in
  float_of_int (Lts.nb_states a)
  *. float_of_int (Lts.nb_states b)
  /. float_of_int (1 + shared)

let same_gates g g' = List.sort compare g = List.sort compare g'

(* maximal chain of Par nodes with one gate set — [|[G]|] is
   associative and commutative for a fixed G, so the chain's members
   can be composed in any order *)
let rec flatten gates node =
  match node with
  | Par (g, a, b) when same_gates g gates -> flatten gates a @ flatten gates b
  | n -> [ n ]

let evaluate ?(plan = `Naive) ?(tick = fun ~states:_ -> ()) ~strategy node =
  let steps = ref [] in
  let record description lts =
    steps :=
      { description; states = Lts.nb_states lts;
        transitions = Lts.nb_transitions lts }
      :: !steps;
    tick ~states:(Lts.nb_states lts);
    lts
  in
  let reduce description lts =
    match strategy with
    | `Monolithic -> record description lts
    | `Compositional ->
      let lts = record description lts in
      record (description ^ " [min]") (Mv_bisim.Branching.minimize lts)
  in
  let rec eval node =
    match node with
    | Leaf (name, lts) -> reduce name lts
    | Par (gates, a, b) -> (
      match (plan, flatten gates node) with
      | `Greedy, (_ :: _ :: _ :: _ as parts) ->
        (* evaluate (and under `Compositional, minimize) every member
           first so the cost model sees reduced sizes, then repeatedly
           compose the cheapest-looking pair *)
        let items = ref (List.map (fun n -> (describe n, eval n)) parts) in
        let rec best_pair items =
          match items with
          | a :: rest ->
            List.fold_left
              (fun acc b ->
                let cost = estimate ~sync:gates (snd a) (snd b) in
                match acc with
                | Some (_, _, c) when c <= cost -> acc
                | _ -> Some (a, b, cost))
              (best_pair rest) rest
          | [] -> None
        in
        while List.length !items > 1 do
          match best_pair !items with
          | None -> assert false
          | Some (((da, la) as ia), ((db, lb) as ib), cost) ->
            let description =
              Printf.sprintf "(%s |[%s]| %s)" da (String.concat "," gates) db
            in
            let expect = int_of_float (Float.min cost 1e9) in
            let lts =
              reduce description (Parallel.compose ~expect ~sync:gates la lb)
            in
            items :=
              (description, lts)
              :: List.filter (fun i -> i != ia && i != ib) !items
        done;
        snd (List.hd !items)
      | _ ->
        let la = eval a and lb = eval b in
        let expect = int_of_float (Float.min (estimate ~sync:gates la lb) 1e9) in
        reduce (describe node) (Parallel.compose ~expect ~sync:gates la lb))
    | Hide (gates, n) ->
      let inner = eval n in
      reduce (describe node) (Lts.hide inner ~gates)
    | Rename (pairs, n) ->
      let inner = eval n in
      let renaming name =
        List.assoc_opt (Mv_lts.Label.gate name) pairs
        |> Option.map (fun g ->
            (* keep offers, replace the gate *)
            match String.index_opt name ' ' with
            | None -> g
            | Some i -> g ^ String.sub name i (String.length name - i))
      in
      reduce (describe node) (Lts.rename inner renaming)
  in
  let result = eval node in
  let steps = List.rev !steps in
  let peak_states =
    List.fold_left (fun acc s -> max acc s.states) 0 steps
  in
  { result; steps; peak_states }

let par_list gates = function
  | [] -> invalid_arg "Net.par_list: empty"
  | n :: rest -> List.fold_left (fun acc x -> Par (gates, acc, x)) n rest
