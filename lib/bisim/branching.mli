(** Branching bisimulation (divergence-blind), by Blom-Orzan signature
    refinement.

    Tau-SCCs are collapsed first (states on a tau cycle are branching
    bisimilar when divergence is ignored), which makes the internal tau
    graph acyclic; each refinement round then computes signatures in
    one pass over a topological order of the tau DAG. The signature of
    a state is the set of [(label, block)] moves reachable through
    inert tau steps, excluding inert tau itself.

    Each signature is packed into a flat, sorted int array over a CSR
    index built once ({!Mv_kern}), inheriting along inert taus by
    array blit — no per-state list allocation or polymorphic sorting.
    Blocks are numbered by first occurrence in state order, so the
    partitions are identical, block ids included, to those of the
    list-signature oracle kept under [test/oracle/] (see
    [doc/performance.md]).

    A [pool] of size > 1 parallelizes each round on systems above 64
    (collapsed) states: states are batched by height in the inert-tau
    DAG and every batch's signatures are computed on all pool domains.
    The partition, quotient and verdict are identical to the
    sequential ones.

    Observability: span [kern.branching] (one per refinement), counter
    [kern.branching.rounds] (signature rounds) and gauge
    [kern.branching.blocks] (blocks of the last partition). *)

(** Coarsest branching-bisimulation partition of the {e original}
    states. With [divergence_sensitive:true] (default [false]) the
    equivalence additionally distinguishes states that can diverge
    (perform infinitely many taus) from those that cannot — CADP's
    "divbranching", the variant that preserves livelocks. *)
val partition :
  ?pool:Mv_par.Pool.t -> ?divergence_sensitive:bool -> Mv_lts.Lts.t -> Partition.t

(** Quotient (inert taus removed; under divergence sensitivity each
    divergent block keeps a tau self-loop), restricted to reachable
    states. *)
val minimize :
  ?pool:Mv_par.Pool.t -> ?divergence_sensitive:bool -> Mv_lts.Lts.t -> Mv_lts.Lts.t

(** Branching bisimilarity of the initial states of two LTSs. *)
val equivalent :
  ?pool:Mv_par.Pool.t ->
  ?divergence_sensitive:bool ->
  Mv_lts.Lts.t ->
  Mv_lts.Lts.t ->
  bool

(** [divergence_free lts] is true when the LTS has no tau cycle
    (callers that need divergence-sensitive results can check this
    before trusting the divergence-blind quotient). *)
val divergence_free : Mv_lts.Lts.t -> bool
