module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

let weak ?divergent lts (p : Partition.t) =
  let transitions = ref [] in
  Lts.iter_transitions lts (fun src label dst ->
      let bs = p.block_of.(src) and bd = p.block_of.(dst) in
      if not (label = Label.tau && bs = bd) then
        transitions := (bs, label, bd) :: !transitions);
  Option.iter
    (Array.iteri (fun b loop ->
         if loop then transitions := (b, Label.tau, b) :: !transitions))
    divergent;
  Lts.make ~nb_states:p.count
    ~initial:p.block_of.(Lts.initial lts)
    ~labels:(Lts.labels lts) !transitions
