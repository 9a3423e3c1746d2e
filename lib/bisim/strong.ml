module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Csr = Mv_kern.Csr
module Refine = Mv_kern.Refine

(* The Mv_kern splitter-worklist engine touches, per splitter, only the
   predecessors of the splitter's states — no per-round full-signature
   recomputation — and renumbers the final blocks by first occurrence
   in state order. *)
let partition lts =
  let block_of, count =
    Refine.strong ~pool:None
      ~nb_labels:(Label.count (Lts.labels lts))
      ~fwd:(Csr.forward lts) ~rev:(Csr.reverse lts)
  in
  { Partition.block_of; count }

let minimize lts = Lts.restrict_reachable (Quotient.strong lts (partition lts))

let equivalent a b =
  let union, offset = Union.disjoint a b in
  let p = partition union in
  Partition.same_block p (Lts.initial a) (offset + Lts.initial b)
