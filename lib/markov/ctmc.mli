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

(** Embedded jump chain (absorbing states get a self-loop). *)
val embedded : t -> Dtmc.t

(** {1 Bottom strongly connected components} *)

(** [bsccs t] lists the BSCCs of the underlying digraph (self-loops
    ignored); singleton absorbing states are BSCCs. *)
val bsccs : t -> int list list

(** {1 Steady-state analysis}

    General chains are handled by BSCC decomposition: the steady-state
    vector is the mixture of per-BSCC stationary distributions weighted
    by the probability of absorption into each BSCC from the initial
    state.

    Each BSCC is renumbered in BFS order into a contiguous CSR system
    and solved by {!Mv_kern.Solver.run}. By default a BSCC whose band
    is narrow enough in that order is solved directly (banded GTH
    elimination) and any other by colored Gauss-Seidel; [method_]
    forces the sweeps: [Gauss_seidel] or [Sor]. The choice does not
    depend on the [pool]: a pool of size [> 1] runs the colored sweeps
    in parallel, and every method gives bit-identical vectors at any
    pool size.

    With several BSCCs, the probability of absorption into each is
    computed by Gauss-Seidel sweeps on the embedded chain, under the
    same [tolerance] and [max_iterations] (per BSCC). Their sweeps,
    residual and convergence are part of the returned
    {!Solver_stats.t}. *)

val steady_state :
  ?pool:Mv_par.Pool.t ->
  ?method_:Mv_kern.Solver.method_ ->
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  float array

(** Same, plus the solve's {!Solver_stats.t} (sub-solves over multiple
    BSCCs are {!Solver_stats.combine}d). *)
val steady_state_stats :
  ?pool:Mv_par.Pool.t ->
  ?method_:Mv_kern.Solver.method_ ->
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  float array * Solver_stats.t

(** {1 Transient analysis} *)

(** [transient t ~horizon] is the state distribution at time [horizon],
    by uniformization. [epsilon] bounds the truncation error (default
    [1e-10]). Under [pool] the per-step products run in parallel and
    are bit-identical to the sequential ones (see
    {!Sparse.mul_left}). *)
val transient :
  ?pool:Mv_par.Pool.t -> ?epsilon:float -> t -> horizon:float -> float array

(** {1 First-passage analysis} *)

(** [mean_first_passage t ~targets] gives, for every state, the
    expected time to first reach [targets] (list of states). States
    that cannot reach the targets get [infinity]; target states get
    [0]. *)
val mean_first_passage :
  ?tolerance:float -> ?max_iterations:int -> t -> targets:int list -> float array

(** [reach_probability_by t ~targets ~horizon] is the probability of
    having entered [targets] by time [horizon], starting from the
    initial state (targets are made absorbing). *)
val reach_probability_by :
  ?epsilon:float -> t -> targets:int list -> horizon:float -> float

(** [accumulated_reward t ~reward ~targets] gives, for every state,
    the expected reward accumulated at rate [reward s] per time unit
    until first reaching [targets] ([infinity] when the targets may
    never be reached). [mean_first_passage] is the special case
    [reward = fun _ -> 1.0]. *)
val accumulated_reward :
  ?tolerance:float ->
  ?max_iterations:int ->
  t ->
  reward:(int -> float) ->
  targets:int list ->
  float array

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
