module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Scc = Mv_lts.Scc
module Csr = Mv_kern.Csr
module Arr = Mv_kern.Arr
module Sig_table = Mv_kern.Sig_table
module Obs = Mv_obs.Obs

let tau_scc lts =
  let iter_succ s f = Lts.iter_out lts s (fun l d -> if l = Label.tau then f d) in
  Scc.compute ~nb_states:(Lts.nb_states lts) ~iter_succ

(* Collapse tau-SCCs. Tarjan numbers components in reverse topological
   order of the condensation, so in the collapsed system every tau edge
   goes from a higher id to a lower id: increasing id order is a valid
   bottom-up processing order for signature inheritance. Also reports
   which collapsed states are divergent (a nontrivial tau-SCC or a tau
   self-loop). *)
let collapse lts =
  let scc = tau_scc lts in
  let transitions = ref [] in
  let divergent = Array.make scc.count false in
  let size = Array.make scc.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc.component;
  Array.iteri (fun c members -> if members > 1 then divergent.(c) <- true) size;
  Lts.iter_transitions lts (fun s l d ->
      let cs = scc.component.(s) and cd = scc.component.(d) in
      if l = Label.tau && cs = cd then divergent.(cs) <- true
      else transitions := (cs, l, cd) :: !transitions);
  let collapsed =
    Lts.make ~nb_states:scc.count
      ~initial:scc.component.(Lts.initial lts)
      ~labels:(Lts.labels lts) !transitions
  in
  (collapsed, scc.component, divergent)

let divergence_free lts =
  let _, _, divergent = collapse lts in
  not (Array.exists Fun.id divergent)

(* Signature refinement over packed int arrays and a CSR index built
   once. The signature of a state is the set of its non-inert moves
   (l, b), each packed into the single word [l * (n+1) + b] (injective
   since blocks are < n+1), plus the signatures inherited along inert
   taus, blitted in and then sorted/deduplicated in place; a divergent
   state also carries the marker [-1] (no packed move is negative).
   Each round keys a state by its old block and its signature, and
   {!Sig_table} numbers the new blocks by first occurrence in state
   order. Only the signatures are computed in parallel; the numbering
   is sequential, so the partition does not depend on the pool. *)
let signatures ?pool ?(divergent = [||]) fwd (p : Partition.t) =
  let n = Csr.nb_rows fwd in
  let base = n + 1 in
  let sigs = Array.make n [||] in
  let compute s =
    let lo = Arr.get fwd.Csr.row s and hi = Arr.get fwd.Csr.row (s + 1) in
    let is_divergent = Array.length divergent > 0 && divergent.(s) in
    let cap = ref (if is_divergent then 1 else 0) in
    for i = lo to hi - 1 do
      if
        Arr.get fwd.Csr.lbl i = Label.tau
        && p.block_of.(Arr.get fwd.Csr.col i) = p.block_of.(s)
      then cap := !cap + Array.length sigs.(Arr.get fwd.Csr.col i)
      else incr cap
    done;
    let buf = Array.make (max !cap 1) 0 in
    let len = ref 0 in
    if is_divergent then begin
      buf.(0) <- -1;
      len := 1
    end;
    for i = lo to hi - 1 do
      let l = Arr.get fwd.Csr.lbl i and d = Arr.get fwd.Csr.col i in
      if l = Label.tau && p.block_of.(d) = p.block_of.(s) then begin
        (* every tau successor d of s has d < s, so sigs.(d) is final *)
        let inherited = sigs.(d) in
        let m = Array.length inherited in
        Array.blit inherited 0 buf !len m;
        len := !len + m
      end
      else begin
        buf.(!len) <- (l * base) + p.block_of.(d);
        incr len
      end
    done;
    let final = Sig_table.sort_dedup buf !len in
    sigs.(s) <- (if final = Array.length buf then buf else Array.sub buf 0 final)
  in
  (match pool with
   | Some pool when Mv_par.Pool.size pool > 1 && n > 64 ->
     (* Signature inheritance follows inert tau edges, so states are
        scheduled by their height in the inert-tau DAG: everything at
        one height depends only on strictly lower heights, making each
        height an independent parallel batch. Heights are recomputed
        per round (inertness depends on the current partition); one
        sequential pass suffices because tau edges always point to
        lower state ids. *)
     let height = Array.make n 0 in
     let max_height = ref 0 in
     for s = 0 to n - 1 do
       let h = ref 0 in
       for i = Arr.get fwd.Csr.row s to Arr.get fwd.Csr.row (s + 1) - 1 do
         if
           Arr.get fwd.Csr.lbl i = Label.tau
           && p.block_of.(Arr.get fwd.Csr.col i) = p.block_of.(s)
           && height.(Arr.get fwd.Csr.col i) + 1 > !h
         then h := height.(Arr.get fwd.Csr.col i) + 1
       done;
       height.(s) <- !h;
       if !h > !max_height then max_height := !h
     done;
     let offsets = Array.make (!max_height + 2) 0 in
     Array.iter (fun h -> offsets.(h + 1) <- offsets.(h + 1) + 1) height;
     for h = 1 to !max_height + 1 do
       offsets.(h) <- offsets.(h) + offsets.(h - 1)
     done;
     let by_height = Array.make n 0 in
     let fill = Array.copy offsets in
     for s = 0 to n - 1 do
       let h = height.(s) in
       by_height.(fill.(h)) <- s;
       fill.(h) <- fill.(h) + 1
     done;
     for h = 0 to !max_height do
       Mv_par.Pool.for_ ~pool ~lo:offsets.(h) ~hi:offsets.(h + 1)
         (fun i -> compute by_height.(i))
     done
   | _ ->
     for s = 0 to n - 1 do
       compute s
     done);
  sigs

let refine ?pool ?divergent collapsed =
  Obs.span "kern.branching" @@ fun () ->
  let n = Lts.nb_states collapsed in
  let fwd = Csr.forward collapsed in
  let table = Sig_table.create () in
  let rounds = Obs.counter "kern.branching.rounds" in
  let rec loop (p : Partition.t) =
    Obs.incr rounds;
    Sig_table.reset table;
    let sigs = signatures ?pool ?divergent fwd p in
    let block_of = Array.make n 0 in
    for s = 0 to n - 1 do
      block_of.(s) <- Sig_table.classify table ~block:p.Partition.block_of.(s) sigs.(s)
    done;
    let p' : Partition.t = { block_of; count = Sig_table.count table } in
    if p'.count = p.count then p' else loop p'
  in
  let p = loop (Partition.trivial n) in
  Obs.set (Obs.gauge "kern.branching.blocks") (float_of_int p.count);
  p

(* A state diverges iff some tau path reaches a tau-cycle: close the
   SCC-level divergence backwards over the collapsed tau DAG
   (increasing id order visits successors first). *)
let divergence_closure collapsed divergent =
  let n = Lts.nb_states collapsed in
  let delta = Array.copy divergent in
  for s = 0 to n - 1 do
    Lts.iter_out collapsed s (fun l d ->
        if l = Label.tau && delta.(d) then delta.(s) <- true)
  done;
  delta

(* the partition of [lts], refined over its tau-SCC collapse *)
let partition_collapsed ?pool ~divergence_sensitive lts
    (collapsed, component, divergent) =
  let p =
    if divergence_sensitive then
      refine ?pool ~divergent:(divergence_closure collapsed divergent) collapsed
    else refine ?pool collapsed
  in
  {
    Partition.block_of =
      Array.init (Lts.nb_states lts) (fun s ->
          p.Partition.block_of.(component.(s)));
    count = p.Partition.count;
  }

let partition ?pool ?(divergence_sensitive = false) lts =
  partition_collapsed ?pool ~divergence_sensitive lts (collapse lts)

let minimize ?pool ?(divergence_sensitive = false) lts =
  let ((_, component, divergent) as collapsed) = collapse lts in
  let p = partition_collapsed ?pool ~divergence_sensitive lts collapsed in
  let divergent =
    if not divergence_sensitive then None
    else begin
      (* a tau self-loop on every block containing a divergent
         original state (inert taus inside a tau-SCC are dropped) *)
      let loops = Array.make p.Partition.count false in
      Array.iteri
        (fun s c -> if divergent.(c) then loops.(p.Partition.block_of.(s)) <- true)
        component;
      Some loops
    end
  in
  Lts.restrict_reachable (Quotient.weak ?divergent lts p)

let equivalent ?pool ?(divergence_sensitive = false) a b =
  let union, offset = Union.disjoint a b in
  let p = partition ?pool ~divergence_sensitive union in
  Partition.same_block p (Lts.initial a) (offset + Lts.initial b)
