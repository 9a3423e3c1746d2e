(** Splitter-worklist partition refinement for strong bisimulation,
    after Valmari / Paige–Tarjan.

    Instead of recomputing a full signature for every state in every
    round (O(n·m) per round), the worklist engine keeps a queue of
    {e splitter} blocks and, for each one popped, walks only the
    predecessors of its states through the reverse CSR index, grouping
    them per label and splitting their blocks at the mark boundary.
    The reverse index is the only adjacency it reads.

    Queueing discipline: when a block [X] splits into [X] and [C],
    - if [X] was still queued, only [C] is added (splitting against
      both halves separately subsumes splitting against old [X]);
    - if every label is deterministic (at most one successor per
      (state, label)), only the {e smaller} half is queued — Hopcroft's
      "process the smaller half", giving O(m log n) splitter work;
    - otherwise {e both} halves are queued (smaller popped first):
      with nondeterministic actions, stability against a parent block
      does not follow from stability against one half alone without
      Paige–Tarjan three-way counts.

    Splitting against a queued block whose extent has since been
    refined is still sound: any such block is a union of current
    blocks, and the labelled predecessor set of a union of
    bisimulation classes never separates bisimilar states.

    Observability: counters [kern.splitters] (splitter blocks
    processed) and [kern.splits] (blocks cut), series [kern.queue]
    (worklist length at each pop), span [kern.strong]. *)

(** [partition ~nb_labels ~deterministic ~rev] computes the coarsest
    strong bisimulation partition of the transition relation indexed
    by [rev] (a {!Csr.reverse} index), sequentially. [deterministic]
    must be [false] unless every (state, label) pair has at most one
    successor; it selects the smaller-half discipline above. Returns
    [(block_of, count)] with block ids renumbered by first occurrence
    in state order — the exact numbering of the legacy
    signature-refinement engine, making the resulting quotient LTSs
    byte-identical. *)
val partition :
  nb_labels:int -> deterministic:bool -> rev:Csr.t -> int array * int

(** [strong ~pool ~nb_labels ~fwd ~rev] is {!partition} with the
    determinism flag read off the forward index [fwd]. [pool] is
    ignored. *)
val strong :
  pool:Mv_par.Pool.t option ->
  nb_labels:int ->
  fwd:Csr.t ->
  rev:Csr.t ->
  int array * int
