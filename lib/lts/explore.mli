(** Generic on-the-fly state-space exploration.

    The MVL interpreter, the CHP translation, the case-study model
    builders and the composition engine all enumerate reachable states
    of some abstract machine; this functor turns any [(initial,
    successors)] description into an explicit {!Lts.t} using
    breadth-first search with hashed canonical states. *)

module type STATE = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'state outcome = {
  lts : Lts.t;
  states : 'state array; (** LTS state id -> abstract state *)
  truncated : bool; (** true when [max_states] stopped the search *)
}

exception Too_many_states of int

(** What {!Make.run_ooc} returns: the counts of the streamed LTS (its
    transitions went to the [emit] sink, not to memory). *)
type ooc_outcome = {
  ooc_states : int;
  ooc_transitions : int;
  ooc_truncated : bool;
}

module Make (S : STATE) : sig
  (** [run ?max_states ?on_truncate ~initial ~successors ()]
      explores breadth-first from [initial]. [successors s] lists the
      labelled moves of [s] (label is a printed name; ["i"] is tau).

      When more than [max_states] (default 1_000_000) states are
      reached: with [on_truncate = `Stop] (default) the frontier is
      abandoned and [truncated] is true (transitions into discovered
      states are kept); with [`Raise] {!Too_many_states} is raised.

      [tick] is a cooperative checkpoint for callers that enforce
      per-request budgets (see [Mv_core.Budget]): it is called with
      the current discovered-state count every 64 expansions, and may
      raise to abandon the exploration.

      [expect] is a sizing hint — the anticipated number of reachable
      states (from a [--expect] flag or the compositional planner's
      estimate). It pre-sizes the hash table so a large exploration
      does not pay O(log n) rehashing rounds; it never affects the
      result. *)
  val run :
    ?tick:(states:int -> unit) ->
    ?max_states:int ->
    ?on_truncate:[ `Stop | `Raise ] ->
    ?expect:int ->
    initial:S.t ->
    successors:(S.t -> (string * S.t) list) ->
    unit ->
    S.t outcome

  (** [run_ooc ~scratch_dir ~labels ~emit ~initial ~successors ()] —
      out-of-core breadth-first search. Instead of materializing an
      {!Lts.t}, calls [emit moves] exactly once per discovered state,
      in state-id order, with the state's outgoing [(label id, dst
      id)] moves (labels interned into [labels]); the glue layer
      connects [emit] to a streaming [.mvb] writer. The initial state
      has id 0. The emitted LTS — numbering, transition multiset,
      label interning order, truncation behaviour — is {e identical}
      to what [run] builds in RAM.

      The seen set lives in a {!Spill}: a Bloom filter sized from
      [expect], a hot table bounded by [hot_budget_bytes] (default
      64 MiB), and sorted runs spilled to [scratch_dir]; cold lookups
      are batched per BFS level. Peak RAM is the bloom bits, the hot
      budget and the widest BFS level — not the state count.

      States are keyed by their [Marshal] encoding (without sharing),
      so [S.equal] must coincide with structural equality of the
      marshalled bytes — true of the tuple / int-array states used by
      every generator here; wrong for states with semantically
      irrelevant fields. Scratch files are removed on return and on
      exceptions. *)
  val run_ooc :
    ?tick:(states:int -> unit) ->
    ?max_states:int ->
    ?on_truncate:[ `Stop | `Raise ] ->
    ?expect:int ->
    ?hot_budget_bytes:int ->
    scratch_dir:string ->
    labels:Label.table ->
    emit:((int * int) array -> unit) ->
    initial:S.t ->
    successors:(S.t -> (string * S.t) list) ->
    unit ->
    ooc_outcome
end
