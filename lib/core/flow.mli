(** The Multival flow (the paper's primary contribution).

    Two pipelines over one formal model:

    {b Functional verification} (paper §3):
    model -> state-space generation -> (branching) minimization ->
    temporal-logic model checking / equivalence checking.

    {b Performance evaluation} (paper §4): the functional model is
    decorated with phase-type delays ([rate] prefixes or
    {!Mv_imc.Phase.process} delay processes synchronized on gates),
    generated into an IMC, minimized by stochastic lumping, closed
    (hiding + maximal progress), transformed into an action-tagged
    CTMC, and solved for steady-state or time-dependent measures and
    action throughputs.

    Every pipeline lives in {!Run} and takes a {!Config.t} first, which
    carries the worker pool, exploration bounds, gate lists, the CTMC
    scheduler and the {!Mv_store.Cache} handle in one value:
    [Run.verify Config.default spec properties],
    [Run.performance (Config.default |> Config.with_keep ["get"]) spec]. *)

(** {1 Model entry points} *)

(** Parse + resolve + typecheck an MVL source text. *)
val model_of_text : string -> Mv_calc.Ast.spec

(** The equivalences the flow can minimize or compare by (also used by
    {!Svl} scripts and [mval minimize -e]). *)
type equivalence = Strong | Branching | Divbranching | Weak | Traces

(** Lower-case name, e.g. ["divbranching"]. *)
val equivalence_name : equivalence -> string

(** {1 Configuration} *)

module Config : sig
  (** Everything that parameterizes a pipeline run. Build one with
      {!default} and the [with_*] helpers:
      [Config.(default |> with_max_states 100_000 |> with_keep ["get"])]. *)
  type t = {
    pool : Mv_par.Pool.t option;
        (** worker pool for the branching-family minimizations and
            comparisons ([-j]); results are identical at every pool
            size. Generation, strong and weak minimization and the
            steady-state solve are sequential and never read it. *)
    max_states : int option;  (** exploration bound for generation *)
    hide : string list;  (** gates abstracted to tau ({!Run.verify}) *)
    keep : string list;
        (** gates kept visible through the performance pipeline *)
    scheduler : Mv_imc.To_ctmc.scheduler;
    cache : Mv_store.Cache.t option;
        (** artifact cache consulted by {!Run.generate},
            {!Run.generate_compositional}, {!Run.minimize} and the
            lumping step of {!Run.performance} *)
    solve_method : Mv_kern.Solver.method_ option;
        (** steady-state method for {!Run.performance} solves
            ([mval solve --method]). [None] lets {!Mv_kern.Solver.run}
            choose per BSCC: a direct banded GTH elimination when its
            cost model allows it, Gauss-Seidel sweeps otherwise.
            [Some Gauss_seidel] forces the sweeps. Like the pool,
            absent from cache keys: every method converges to the
            same vector within the solver tolerance, and solve
            results are never cached. *)
    budget : Budget.t option;
        (** per-request computation budget (state count, wall time),
            enforced cooperatively inside the pipeline steps: the
            explorer checks it every batch, and every step boundary
            re-checks it. Over-budget runs raise {!Budget.Exceeded}.
            Like the pool, absent from cache keys: budgets bound
            computation, not results. A cached LTS is still checked
            against the state budget, so a warm run fails exactly
            where a cold one would. *)
    mem_budget_mb : int option;
        (** RAM target for the out-of-core path: half goes to the hot
            seen-set, the rest covers bloom bits and the current BFS
            level. [None] uses a 64 MiB hot budget. *)
    scratch_dir : string option;
        (** where spill runs and mmap scratch files live; defaults to
            the output file's directory *)
    expect : int option;
        (** anticipated reachable-state count: pre-sizes exploration
            hash tables and the out-of-core bloom filter. A hint —
            never changes any result. *)
    compose_plan : Mv_compose.Net.plan;
        (** composition-order planning for
            {!Run.generate_compositional} *)
  }

  val default : t
  val with_pool : Mv_par.Pool.t option -> t -> t
  val with_budget : Budget.t option -> t -> t

  val with_solve_method : Mv_kern.Solver.method_ option -> t -> t
  val with_max_states : int -> t -> t
  val with_hide : string list -> t -> t
  val with_keep : string list -> t -> t
  val with_scheduler : Mv_imc.To_ctmc.scheduler -> t -> t
  val with_cache : Mv_store.Cache.t option -> t -> t
  val with_mem_budget_mb : int option -> t -> t
  val with_scratch_dir : string option -> t -> t
  val with_expect : int option -> t -> t
  val with_compose_plan : Mv_compose.Net.plan -> t -> t
end

(** {1 Results} *)

type property_result = {
  property_name : string;
  formula : Mv_mcl.Formula.t;
  holds : bool;
}

type verification = {
  lts : Mv_lts.Lts.t;  (** generated state space *)
  minimized : Mv_lts.Lts.t;  (** branching-bisimulation quotient *)
  deadlock_states : int list;  (** deadlocks of the full LTS *)
  results : property_result list;  (** checked on the full LTS *)
}

type performance = {
  imc : Mv_imc.Imc.t;  (** decoded from the generated LTS *)
  lumped : Mv_imc.Imc.t;  (** after stochastic minimization *)
  conversion : Mv_imc.To_ctmc.result;
  steady : (float array * Mv_markov.Solver_stats.t) Lazy.t;
      (** steady-state of the CTMC, with the solve's stats: zero
          iterations when every BSCC was eliminated directly, the
          sweep count and residual when Gauss-Seidel ran *)
}

(** {1 Pipelines} *)

module Run : sig
  (** State-space generation, sequential; memoized through
      [config.cache] keyed on the printed model text and
      [max_states]. *)
  val generate : Config.t -> Mv_calc.Ast.spec -> Mv_lts.Lts.t

  (** Compositional generation (the automated form of the paper's §3
      approach): the top-level parallel/hide structure of [spec.init]
      is turned into a composition network whose leaves are generated
      separately, then combined with minimize-before-compose
      ({!Mv_compose.Net}). The result is branching-equivalent to
      {!generate} but the peak intermediate size can be exponentially
      smaller. Only [|\[...\]|] and [hide] nodes are split; any other
      construct becomes a leaf. [config.max_states] and
      [config.budget]'s state limit are checked on every leaf,
      product, hiding and minimization step: a step over
      [max_states] raises {!Mv_lts.Explore.Too_many_states}, as
      {!generate} does. With a cache, only the final LTS is memoized:
      a hit is checked against both bounds too, and returns a report
      with one synthetic step and [peak_states] equal to the result
      size. *)
  val generate_compositional :
    Config.t -> Mv_calc.Ast.spec -> Mv_compose.Net.report

  (** Out-of-core generation: explore with the spillable seen set
      (bloom + bounded hot table + sorted disk runs, see
      {!Mv_lts.Explore.Make.run_ooc}) and stream the transitions
      straight into [out] (a [.mvb] file), never materializing the
      LTS. The file is byte-identical to writing {!generate}'s result
      with {!Mv_store.Mvb.write_file}. Spill scratch goes to
      [config.scratch_dir] (default: [out]'s directory) and is removed
      on return or exception; [config.mem_budget_mb] bounds the hot
      seen-set. Not cached (the artifact {e is} the output file). *)
  val generate_mvb :
    Config.t -> Mv_calc.Ast.spec -> out:string -> Mv_lts.Explore.ooc_outcome

  (** Out-of-core strong minimization, [.mvb] file to [.mvb] file:
      {!Mv_bisim.Strong.minimize_sweep}, the minimizer of {!minimize},
      replays the input through an mmap'd {!Mv_store.Mvb.Segment} and
      builds its reverse CSR index into mmap scratch
      ({!Mv_kern.Csr.Scratch}), so neither is held on the heap. [dst]
      is byte-identical to minimizing the materialized LTS and writing
      it. Returns the minimized LTS (it is small). Only [Strong] is
      supported out-of-core; other equivalences raise
      [Invalid_argument]. *)
  val minimize_mvb :
    Config.t -> equivalence -> src:string -> dst:string -> Mv_lts.Lts.t

  (** Quotient by the given equivalence ([Traces] determinizes);
      memoized through [config.cache] keyed on the input LTS bytes. *)
  val minimize : Config.t -> equivalence -> Mv_lts.Lts.t -> Mv_lts.Lts.t

  (** Equivalence of two LTSs' initial states (never cached — it is a
      yes/no answer, not an artifact). *)
  val equivalent : Config.t -> equivalence -> Mv_lts.Lts.t -> Mv_lts.Lts.t -> bool

  (** The verification pipeline. [config.hide] lists gates abstracted
      to tau before minimization (checking still runs on the unhidden
      LTS). *)
  val verify :
    Config.t ->
    Mv_calc.Ast.spec ->
    (string * Mv_mcl.Formula.t) list ->
    verification

  (** The performance pipeline. Gates in [config.keep] stay visible
      through hiding and become the action tags available for
      throughput queries; every other gate is hidden. The lumping
      step is memoized through [config.cache]. *)
  val performance : Config.t -> Mv_calc.Ast.spec -> performance

  (** Same pipeline entered at the IMC level (for compositionally
      built IMCs). *)
  val performance_of_imc : Config.t -> Mv_imc.Imc.t -> performance
end

(** {1 Accessors} *)

(** [all_hold v]. *)
val all_hold : verification -> bool

(** Shortest trace into a deadlock of the generated LTS ([None] when
    deadlock-free). *)
val deadlock_witness : verification -> Mv_lts.Trace.t option

(** Shortest trace whose last action is on [gate] ([None] when no such
    action is reachable). *)
val action_witness : verification -> gate:string -> Mv_lts.Trace.t option

(** The steady-state vector (forces the solve). *)
val steady_vector : performance -> float array

(** Convergence stats of the steady-state solve (forces the solve);
    check [converged] before trusting the vector. *)
val solver_stats : performance -> Mv_markov.Solver_stats.t

(** Long-run occurrence rate of actions on gate [gate] (summed over
    offer values). The gate must be in [keep]. *)
val throughput : performance -> gate:string -> float

(** All visible-action throughputs, by label. *)
val throughputs : performance -> (string * float) list

(** Mean time until the first occurrence of an action on [gate],
    starting from the initial state ([infinity] if it may never
    occur), with the stats of its renewal solve: check [converged]
    before trusting the time. *)
val time_to_first :
  performance -> gate:string -> float * Mv_markov.Solver_stats.t

(** Probability that an action on [gate] has occurred by [horizon]. *)
val probability_by : performance -> gate:string -> horizon:float -> float

(** Expected steady-state reward over CTMC states; the reward is given
    on CTMC state ids (see [conversion] for the mapping back to IMC
    states). *)
val expected_reward : performance -> (int -> float) -> float
