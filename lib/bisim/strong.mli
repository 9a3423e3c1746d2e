(** Strong bisimulation.

    The engine is the {!Mv_kern.Refine} splitter worklist (Valmari /
    Paige-Tarjan style, "process the smaller half" on deterministic
    labels): per splitter it touches only the predecessors of the
    splitter's states through a reverse CSR index, instead of
    recomputing every state's signature every round. Blocks are
    numbered by first occurrence in state order, so quotients are
    byte-identical to those of the signature-refinement oracle kept
    under [test/oracle/]; see [doc/performance.md].

    One minimizer serves an {!Mv_lts.Lts.t} in RAM and a mapped [.mvb]
    out of core ({!minimize_sweep}): both hand it a replay of their
    transitions, and the results are the same bytes by construction. *)

(** Coarsest strong-bisimulation partition. *)
val partition : Mv_lts.Lts.t -> Partition.t

(** Quotient by the coarsest partition, restricted to reachable
    states: {!minimize_sweep} over {!Mv_lts.Lts.iter_transitions}. *)
val minimize : Mv_lts.Lts.t -> Mv_lts.Lts.t

(** [minimize_sweep ~mode ~nb_states ~nb_transitions ~initial ~labels
    sweep] minimizes the LTS whose transitions [sweep f] replays as
    [f src label dst], in canonical (src, label, dst) order without
    duplicates (the order of {!Mv_lts.Lts.iter_transitions} and of a
    [.mvb] file's transition section). [sweep] is called three times:
    twice to build the reverse index, whose arrays live where [mode]
    says, and once to read the quotient off each block's first state.
    The result is {!minimize} of the same LTS, byte for byte. *)
val minimize_sweep :
  mode:Mv_kern.Csr.mode ->
  nb_states:int ->
  nb_transitions:int ->
  initial:int ->
  labels:Mv_lts.Label.table ->
  ((int -> int -> int -> unit) -> unit) ->
  Mv_lts.Lts.t

(** [equivalent a b] — strong bisimilarity of the initial states.
    Labels are matched by printed name. *)
val equivalent : Mv_lts.Lts.t -> Mv_lts.Lts.t -> bool
