module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Csr = Mv_kern.Csr
module Refine = Mv_kern.Refine

(* The Mv_kern splitter-worklist engine over a reverse CSR built from
   two replays of [sweep]. Transitions arrive in canonical (src, label,
   dst) order, so a source with two moves under one label shows as two
   consecutive transitions sharing source and label: the first replay
   reads the smaller-half flag off the stream, with no forward index. *)
let refine ~mode ~nb_states ~nb_transitions ~nb_labels sweep =
  let deterministic = ref true in
  let last_src = ref (-1) and last_label = ref (-1) in
  let rev =
    Csr.reverse_iter ~mode ~n:nb_states ~m:nb_transitions (fun f ->
        last_src := -1;
        sweep (fun s l d ->
            if s = !last_src && l = !last_label then deterministic := false;
            last_src := s;
            last_label := l;
            f s l d))
  in
  let block_of, count =
    Refine.partition ~nb_labels ~deterministic:!deterministic ~rev
  in
  { Partition.block_of; count }

(* The coarsest strong partition is stable: every state of a block has
   the same mapped (label, block) moves. So the quotient is read off
   each block's first state, one more replay skipping the rest. *)
let minimize_sweep ~mode ~nb_states ~nb_transitions ~initial ~labels sweep =
  let p =
    refine ~mode ~nb_states ~nb_transitions ~nb_labels:(Label.count labels)
      sweep
  in
  let first = Array.make p.count (-1) in
  for s = nb_states - 1 downto 0 do
    first.(p.block_of.(s)) <- s
  done;
  let transitions = ref [] in
  sweep (fun s l d ->
      let b = p.block_of.(s) in
      if first.(b) = s then transitions := (b, l, p.block_of.(d)) :: !transitions);
  Lts.restrict_reachable
    (Lts.make ~nb_states:p.count ~initial:p.block_of.(initial) ~labels
       !transitions)

let partition lts =
  refine ~mode:Csr.In_ram ~nb_states:(Lts.nb_states lts)
    ~nb_transitions:(Lts.nb_transitions lts)
    ~nb_labels:(Label.count (Lts.labels lts))
    (Lts.iter_transitions lts)

let minimize lts =
  minimize_sweep ~mode:Csr.In_ram ~nb_states:(Lts.nb_states lts)
    ~nb_transitions:(Lts.nb_transitions lts) ~initial:(Lts.initial lts)
    ~labels:(Lts.labels lts) (Lts.iter_transitions lts)

let equivalent a b =
  let union, offset = Union.disjoint a b in
  let p = partition union in
  Partition.same_block p (Lts.initial a) (offset + Lts.initial b)
