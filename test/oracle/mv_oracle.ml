(* Reference minimizers: the signature-refinement engines that the
   flat kernels of Mv_bisim and Mv_imc.Lump replaced, kept as
   sequential, list-based test oracles. Nothing in lib/ uses them.

   Every engine recomputes the signature of every state each round,
   keys each state by its old block and its signature, and numbers the
   new blocks by first occurrence in state order, until the block
   count is stable. The lib/ engines promise partitions identical to
   these, block ids included. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Scc = Mv_lts.Scc
module Partition = Mv_bisim.Partition
module Imc = Mv_imc.Imc

(* Refine the trivial partition of [nb_states] states until the block
   count is stable. [signatures p] gives every state's canonical
   signature under [p]; the new block of a state is the first-occurrence
   number of its (old block, signature) key. *)
let refine ~nb_states signatures =
  let rec loop (p : Partition.t) =
    let sigs = signatures p in
    let keys = Hashtbl.create 256 in
    let block_of =
      Array.init nb_states (fun s ->
          let key = (p.block_of.(s), sigs.(s)) in
          match Hashtbl.find_opt keys key with
          | Some id -> id
          | None ->
            let id = Hashtbl.length keys in
            Hashtbl.add keys key id;
            id)
    in
    let p' = { Partition.block_of; count = Hashtbl.length keys } in
    if p'.count = p.count then p' else loop p'
  in
  loop (Partition.trivial nb_states)

(* Kanellakis-Smolka: a state's signature is its set of (label,
   successor block) pairs. *)
module Strong = struct
  let partition lts =
    refine ~nb_states:(Lts.nb_states lts) (fun (p : Partition.t) ->
        Array.init (Lts.nb_states lts) (fun s ->
            Lts.fold_out lts s (fun l d acc -> (l, p.block_of.(d)) :: acc) []
            |> List.sort_uniq compare))

  let minimize lts =
    Lts.restrict_reachable (Mv_bisim.Quotient.strong lts (partition lts))
end

(* Blom-Orzan: a state's signature is the set of (label, block) moves
   reachable through inert taus, inert taus excluded; under divergence
   sensitivity a state that can reach a tau cycle also carries a
   marker. [minimize] is divergence-blind. *)
module Branching = struct
  (* Tau-SCC collapse: [component] maps states to Tarjan components (a
     tau edge between two components goes to the lower id), [succ.(c)]
     lists the moves of [c] minus its internal taus, and [cyclic.(c)]
     says whether [c] has an internal tau edge, i.e. a tau cycle. *)
  let collapse lts =
    let scc =
      Scc.compute ~nb_states:(Lts.nb_states lts) ~iter_succ:(fun s f ->
          Lts.iter_out lts s (fun l d -> if l = Label.tau then f d))
    in
    let component = scc.Scc.component in
    let succ = Array.make scc.Scc.count [] in
    let cyclic = Array.make scc.Scc.count false in
    Lts.iter_transitions lts (fun s l d ->
        let cs = component.(s) and cd = component.(d) in
        if l = Label.tau && cs = cd then cyclic.(cs) <- true
        else succ.(cs) <- (l, cd) :: succ.(cs));
    (component, succ, cyclic)

  let partition ?(divergence_sensitive = false) lts =
    let component, succ, cyclic = collapse lts in
    let n = Array.length succ in
    (* a component diverges when a tau path leads to a tau cycle; tau
       successors have lower ids, so one ascending pass closes it *)
    let divergent = Array.copy cyclic in
    for c = 0 to n - 1 do
      List.iter
        (fun (l, d) -> if l = Label.tau && divergent.(d) then divergent.(c) <- true)
        succ.(c)
    done;
    let signatures (p : Partition.t) =
      let sigs = Array.make n [] in
      for c = 0 to n - 1 do
        let inert (l, d) = l = Label.tau && p.block_of.(d) = p.block_of.(c) in
        let moves =
          List.concat_map
            (fun ((l, d) as move) ->
               if inert move then sigs.(d) else [ (l, p.block_of.(d)) ])
            succ.(c)
        in
        let marker =
          if divergence_sensitive && divergent.(c) then [ (-1, -1) ] else []
        in
        sigs.(c) <- List.sort_uniq compare (marker @ moves)
      done;
      sigs
    in
    let p = refine ~nb_states:n signatures in
    {
      Partition.block_of = Array.map (fun c -> p.block_of.(c)) component;
      count = p.count;
    }

  let minimize lts =
    Lts.restrict_reachable (Mv_bisim.Quotient.weak lts (partition lts))
end

(* Stochastic bisimulation: a state's signature is its (label, block)
   interactive moves plus its cumulative rate into every block, summed
   through a Hashtbl in transition order and rounded to 12 significant
   digits. *)
module Lump = struct
  let partition imc =
    let n = Imc.nb_states imc in
    refine ~nb_states:n (fun (p : Partition.t) ->
        let interactive = Array.make n [] in
        Imc.iter_interactive imc (fun s l d ->
            interactive.(s) <- (l, p.block_of.(d)) :: interactive.(s));
        let rates = Array.init n (fun _ -> Hashtbl.create 4) in
        Imc.iter_markovian imc (fun s r d ->
            let b = p.block_of.(d) in
            let sum = Option.value ~default:0.0 (Hashtbl.find_opt rates.(s) b) in
            Hashtbl.replace rates.(s) b (sum +. r));
        Array.init n (fun s ->
            ( List.sort_uniq compare interactive.(s),
              Hashtbl.fold
                (fun b r acc -> (b, Printf.sprintf "%.12e" r) :: acc)
                rates.(s) []
              |> List.sort compare )))
end
