(** State-space generation: from an MVL specification to an explicit
    LTS (the CADP "generator" step of the flow).

    States are normalized closed behaviour terms, interned for the
    length of one call ({!Semantics.table}): equal states are one
    physical node whose hash was computed once from its children's, and
    each subterm's moves are derived once and cached on it, so a
    state's successors are assembled from its components' cached moves.
    Markovian [rate] prefixes appear as ["rate <lambda>"] labels; the
    IMC layer ({!Mv_imc}) recognizes and decodes them.

    Modeling caveat: a [hide] (or [rename]) {e inside} a recursive body
    accumulates one binder per unfolding and never converges to a
    finite term set; place recursion outside the binder (e.g.
    [(hide h in ...) >> P] or hide at the composition level). *)

type outcome = {
  lts : Mv_lts.Lts.t;
  terms : Ast.behavior array; (** LTS state -> behaviour term *)
  truncated : bool;
}

(** [generate ?max_states spec] explores breadth-first from
    [spec.init]. Default bound: 1_000_000 states; reaching it raises
    {!Mv_lts.Explore.Too_many_states}.
    [tick] is forwarded to {!Mv_lts.Explore.Make.run}: a cooperative
    budget checkpoint called with the discovered-state count.
    [expect] pre-sizes the exploration hash tables (a hint, never a
    bound). *)
val generate :
  ?tick:(states:int -> unit) ->
  ?max_states:int ->
  ?expect:int ->
  Ast.spec ->
  outcome

(** [lts ?tick ?max_states spec] is [(generate spec).lts]. *)
val lts :
  ?tick:(states:int -> unit) ->
  ?max_states:int ->
  ?expect:int ->
  Ast.spec ->
  Mv_lts.Lts.t

(** Out-of-core generation: breadth-first exploration that streams
    each state's transitions to [emit] (in state-id order, labels
    interned into [labels]) instead of materializing an LTS, with the
    seen set spilling to sorted runs in [scratch_dir] past
    [hot_budget_bytes] — see {!Mv_lts.Explore.Make.run_ooc}. The
    emitted LTS is identical to what {!generate} builds in RAM. States
    stay whole terms here (the seen set keys them by their marshalled
    bytes) and each expansion interns into a table of its own, so no
    table outlives a state's expansion. *)
val generate_ooc :
  ?tick:(states:int -> unit) ->
  ?max_states:int ->
  ?expect:int ->
  ?hot_budget_bytes:int ->
  scratch_dir:string ->
  labels:Mv_lts.Label.table ->
  emit:((int * int) array -> unit) ->
  Ast.spec ->
  Mv_lts.Explore.ooc_outcome

(** [first_deadlock ?max_states spec] searches breadth-first for a
    deadlocked state {e during} generation and stops at the first hit,
    returning a shortest action trace to it (so large live portions of
    the state space need not be fully built when a deadlock is
    shallow). It explores the same interned states as {!generate}.
    [None] when the whole (bounded) state space is deadlock-free. *)
val first_deadlock : ?max_states:int -> Ast.spec -> string list option
