(** Quotient LTSs of the weak equivalences (weak and branching
    bisimulation). Strong bisimulation reads its quotient off one state
    per block instead; see {!Strong.minimize_sweep}. *)

(** [weak ?divergent lts p] keeps one state per block and one copy of
    every transition between blocks, dropping inert tau transitions
    (tau steps inside one block). Every block [b] with
    [divergent.(b)] gets a tau self-loop, as divergence-sensitive
    branching quotients need. *)
val weak : ?divergent:bool array -> Mv_lts.Lts.t -> Partition.t -> Mv_lts.Lts.t
