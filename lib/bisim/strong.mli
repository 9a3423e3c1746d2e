(** Strong bisimulation.

    The engine is the {!Mv_kern.Refine} splitter worklist (Valmari /
    Paige-Tarjan style, "process the smaller half" on deterministic
    labels): per splitter it touches only the predecessors of the
    splitter's states through a reverse CSR index, instead of
    recomputing every state's signature every round. Blocks are
    numbered by first occurrence in state order, so quotients are
    byte-identical to those of the signature-refinement oracle kept
    under [test/oracle/]; see [doc/performance.md].

    With a [pool] of size > 1, systems above 1024 states gather each
    round's splitter predecessors on all pool domains; the partition
    is identical, block ids included, at every pool size. *)

(** Coarsest strong-bisimulation partition. *)
val partition : ?pool:Mv_par.Pool.t -> Mv_lts.Lts.t -> Partition.t

(** Quotient by the coarsest partition, restricted to reachable
    states. *)
val minimize : ?pool:Mv_par.Pool.t -> Mv_lts.Lts.t -> Mv_lts.Lts.t

(** [equivalent a b] — strong bisimilarity of the initial states.
    Labels are matched by printed name. *)
val equivalent : ?pool:Mv_par.Pool.t -> Mv_lts.Lts.t -> Mv_lts.Lts.t -> bool
