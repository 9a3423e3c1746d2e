(** Weak (observational) bisimulation.

    Milner's observational equivalence: tau moves may be absorbed
    before and after a visible action ([tau* a tau*]), and a tau move
    may be matched by any number of taus (including none). Coarser than
    branching bisimulation (which also constrains the intermediate
    states), finer than weak traces.

    Implemented by saturation: build the weak-transition relation and
    minimize it modulo strong bisimulation. Saturation can square the
    transition count, so prefer {!Branching} (cheaper and finer —
    almost always what the flow needs); this module exists for
    CADP-parity and for the rare systems where branching is too
    strong. *)

(** Coarsest weak-bisimulation partition of the original states. *)
val partition : Mv_lts.Lts.t -> Partition.t

(** Quotient by weak bisimilarity (built on the original transitions,
    inert taus dropped), restricted to reachable states. *)
val minimize : Mv_lts.Lts.t -> Mv_lts.Lts.t

(** Weak bisimilarity of the initial states of two LTSs. *)
val equivalent : Mv_lts.Lts.t -> Mv_lts.Lts.t -> bool
