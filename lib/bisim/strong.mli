(** Strong bisimulation.

    The engine is the {!Mv_kern.Refine} splitter worklist (Valmari /
    Paige-Tarjan style, "process the smaller half" on deterministic
    labels): per splitter it touches only the predecessors of the
    splitter's states through a reverse CSR index, instead of
    recomputing every state's signature every round. Blocks are
    numbered by first occurrence in state order, so quotients are
    byte-identical to those of the signature-refinement oracle kept
    under [test/oracle/]; see [doc/performance.md]. *)

(** Coarsest strong-bisimulation partition. *)
val partition : Mv_lts.Lts.t -> Partition.t

(** Quotient by the coarsest partition, restricted to reachable
    states. *)
val minimize : Mv_lts.Lts.t -> Mv_lts.Lts.t

(** [equivalent a b] — strong bisimilarity of the initial states.
    Labels are matched by printed name. *)
val equivalent : Mv_lts.Lts.t -> Mv_lts.Lts.t -> bool
