(** Continuous-time Markov chains with action-tagged transitions.

    This is the back end of the performance-evaluation flow: an IMC
    whose interactive behaviour has been closed becomes a CTMC whose
    transitions may carry the visible action labels crossed during the
    closure, so that {e transition throughputs} (the quantity reported
    by the paper's flow) can be attributed to actions.

    Self-loop transitions are legal: they do not influence the
    probability distribution but do contribute to action throughputs. *)

type transition = {
  src : int;
  rate : float; (** strictly positive *)
  actions : string list; (** visible actions attributed to this move *)
  dst : int;
}

type t

(** [make ~nb_states ~initial transitions] — rates must be positive.
    Parallel transitions are kept separate (their action tags differ in
    general). *)
val make : nb_states:int -> initial:int -> transition list -> t

val nb_states : t -> int
val nb_transitions : t -> int
val initial : t -> int
val iter_transitions : t -> (transition -> unit) -> unit

(** [exit_rates t] — total rate out of each state. Self-loop
    transitions are excluded: re-entering the same state leaves the
    sojourn-time distribution unchanged, so self-loops contribute to
    action throughputs but never to exit rates. *)
val exit_rates : t -> float array

(** States with no outgoing non-self transition. *)
val absorbing_states : t -> int list

(** {1 Bottom strongly connected components} *)

(** [bsccs t] lists the BSCCs of the underlying digraph (self-loops
    ignored); singleton absorbing states are BSCCs. *)
val bsccs : t -> int list list

(** {1 Steady-state analysis}

    Every quantity below is one or more stationary solves by
    {!Mv_kern.Solver.run}, each on a contiguous CSR system of one
    irreducible subset, renumbered in BFS order. By default a subset
    whose band is narrow enough in that order is solved directly
    (banded GTH elimination) and any other by sequential Gauss-Seidel
    sweeps in that order; [method_] forces the sweeps.

    General chains are handled by BSCC decomposition: the steady-state
    vector is the mixture of per-BSCC stationary distributions weighted
    by the probability of absorption into each BSCC from the initial
    state. With several BSCCs and a transient initial state, those
    probabilities come from one stationary solve of a {e renewal
    chain}: every move into BSCC [c] goes instead to a fresh node that
    returns to the initial state at rate 1, and node [c]'s share of the
    node mass is the probability of entering [c] first. The nodes are
    the solver system's border columns ({!Mv_kern.Solver.system}): the
    states that enter a BSCC may lie anywhere in the BFS order, and a
    node kept in the band would make it as wide as the chain, so the
    renewal chain is as narrow as the chain's own transient part. Its
    iterations, residual and convergence are part of the returned
    {!Solver_stats.t}, under the same [tolerance], [max_iterations]
    and [method_]. *)

val steady_state :
  ?method_:Mv_kern.Solver.method_ ->
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  float array

(** Same, plus the solve's {!Solver_stats.t} (sub-solves over multiple
    BSCCs are {!Solver_stats.combine}d). *)
val steady_state_stats :
  ?method_:Mv_kern.Solver.method_ ->
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  float array * Solver_stats.t

(** {1 Transient analysis} *)

(** [transient t ~horizon] is the state distribution at time [horizon],
    by uniformization, sequentially. [epsilon] bounds the truncation
    error (default [1e-10]). *)
val transient : ?epsilon:float -> t -> horizon:float -> float array

(** {1 First-passage analysis}

    Passage times and accumulated rewards come from the same renewal
    chain as the absorption probabilities, with the targets as its one
    class: the expected time (reward) before the first entry is
    [sum_s pi_s r(s) / pi_node] over its stationary vector [pi]. The
    answer is [infinity] when, from the initial state, some run never
    reaches a target (that chain's BSCC holding the initial state has
    no node). With the node as a border column, the renewal chain is
    eliminated exactly whenever the chain's non-target part is narrow
    in BFS order from the initial state, however many of its states
    enter a target; a wider one gets the sweeps' residual check,
    [max_iterations] budget and convergence flag, reported in the
    returned {!Solver_stats.t}. Neither function takes a [method_], so
    [mval solve --method gs] does not force the sweeps here. Both
    answer from the initial state. *)

(** [mean_first_passage t ~targets] is the expected time to first
    reach [targets] (list of states) from the initial state: [0] when
    it is a target, [infinity] when the targets may never be reached.
    [tolerance] defaults to [1e-13], [max_iterations] to [200_000]. *)
val mean_first_passage :
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  targets:int list ->
  float * Solver_stats.t

(** [reach_probability_by t ~targets ~horizon] is the probability of
    having entered [targets] by time [horizon], starting from the
    initial state (targets are made absorbing). *)
val reach_probability_by :
  ?epsilon:float -> t -> targets:int list -> horizon:float -> float

(** [accumulated_reward t ~reward ~targets] is the expected reward
    accumulated at rate [reward s] per time unit, from the initial
    state until first reaching [targets] ([infinity] when the targets
    may never be reached). [mean_first_passage] is the special case
    [reward = fun _ -> 1.0]. *)
val accumulated_reward :
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  reward:(int -> float) ->
  targets:int list ->
  float * Solver_stats.t

(** {1 Rewards and throughputs} *)

(** [throughput t ~pi ~action] is the long-run occurrence rate of
    [action]: the sum over transitions tagged with it of
    [pi.(src) *. rate] (a tag occurring twice on one transition counts
    twice). *)
val throughput : t -> pi:float array -> action:string -> float

(** All actions with their throughputs, sorted by action name. *)
val throughputs : t -> pi:float array -> (string * float) list

(** [expected_reward t ~pi reward] is [sum_s pi.(s) *. reward s]. *)
val expected_reward : t -> pi:float array -> (int -> float) -> float

val pp : Format.formatter -> t -> unit
