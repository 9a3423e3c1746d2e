(** Stochastic bisimulation minimization of IMCs.

    The equivalence refines strong bisimulation on interactive
    transitions with ordinary lumpability on Markovian rates: two
    states are equivalent when they have the same [(label, block)]
    interactive moves and the same cumulative rate into every block.

    This is the "stochastic state space minimization" step that the
    flow alternates with generation. Cumulative rates are compared
    after rounding to 12 significant digits, so rate sums that differ
    only by floating-point association are lumped together.

    Refinement runs the rounds of the list/Hashtbl oracle kept under
    [test/oracle/], which recomputes every state's signature each
    round, but it computes only the signatures that can change: a
    state's signature changes only when one of its successors,
    interactive or Markovian, changed block in the previous round.
    Block ids stay stable across rounds; in each round the dirty
    states of a block are grouped by signature, the group that
    matches the block's untouched states (or, if there are none, the
    largest group) keeps the id, and every other group takes a fresh
    one and dirties its predecessors. Signatures are packed into flat
    int arrays over {!Mv_kern.Sig_table}, with rounded rate strings
    interned. Each round therefore yields the oracle's partition, and
    the final blocks are numbered by first occurrence in state order,
    so the partitions are identical to the oracle's, block ids
    included.

    Observability: [lump.rounds] counter, [lump.blocks] series (the
    block count after each round), [lump.signatures] counter (the
    signatures computed). *)

(** Coarsest stochastic-bisimulation partition. *)
val partition : Imc.t -> Mv_bisim.Partition.t

(** Quotient IMC (reachable part): one state per block, interactive
    transitions deduplicated, Markovian rates summed per target
    block. *)
val minimize : Imc.t -> Imc.t

(** [equivalent a b] — stochastic bisimilarity of initial states. *)
val equivalent : Imc.t -> Imc.t -> bool
