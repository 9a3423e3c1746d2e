(** Stochastic bisimulation minimization of IMCs.

    The equivalence refines strong bisimulation on interactive
    transitions with ordinary lumpability on Markovian rates: two
    states are equivalent when they have the same [(label, block)]
    interactive moves and the same cumulative rate into every block.

    This is the "stochastic state space minimization" step that the
    flow alternates with generation. Cumulative rates are compared
    after rounding to 12 significant digits, so rate sums that differ
    only by floating-point association are lumped together.

    Signatures are packed into flat int arrays over
    {!Mv_kern.Sig_table}, with rounded rate strings interned. Blocks
    are numbered by first occurrence in state order, so the partitions
    are identical, block ids included, to those of the list/Hashtbl
    oracle kept under [test/oracle/]. *)

(** Coarsest stochastic-bisimulation partition. *)
val partition : Imc.t -> Mv_bisim.Partition.t

(** Quotient IMC (reachable part): one state per block, interactive
    transitions deduplicated, Markovian rates summed per target
    block. *)
val minimize : Imc.t -> Imc.t

(** [equivalent a b] — stochastic bisimilarity of initial states. *)
val equivalent : Imc.t -> Imc.t -> bool
