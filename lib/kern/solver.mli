(** CSR sparse steady-state solver kernels.

    The system is a local, contiguous view of one irreducible subset of
    a CTMC: states renumbered [0 .. size-1] (callers should use a BFS
    order for cache locality — see {!Mv_markov.Ctmc}), incoming
    transitions in CSR form, and per-state exit rates. Solves
    [pi_j = (sum_i pi_i q_ij) / E_j] with post-sweep normalization.

    {!run} is the single entry point; every front end (CLI, daemon
    ops, bench, {!Mv_markov.Ctmc}) builds the same {!config} record,
    so a method/tolerance choice means the same thing everywhere.

    Methods:
    - [Gauss_seidel]: in-place sweeps in {e colored order} — a greedy
      multi-coloring of the transition conflict graph groups states so
      that no state reads a same-class write, then every configuration
      sweeps class 0 ascending, class 1 ascending, ... At [-j 1] that
      permuted sweep runs sequentially; under a pool each class is a
      parallel loop over disjoint slots, and the residual max and
      normalization sums stay sequential — so the iterate sequence is
      {e bitwise identical at any pool size}. The default: fewer
      sweeps than Jacobi on every case study. On bipartite conflict
      graphs (e.g. pure cycles) the colored sweep can oscillate
      instead of contracting; a residual-stall detector then drops to
      an under-relaxed (0.7) sweep, which is convergent — the
      detector reads only the (pool-size-independent) residual
      sequence, so the bitwise guarantee stands.
    - [Sor]: the colored Gauss-Seidel sweep with over-relaxation
      [pi_j <- (1-omega) pi_j + omega update] ([config.omega], default
      {!default_sor_omega}). Over-relaxation is not convergent on
      every chain; when the residual stops improving, [omega] is
      halved back toward [1.0] and iteration continues, so [Sor]
      degrades to Gauss-Seidel in the worst case instead of
      oscillating forever.
    - [Jacobi]: damped Jacobi (damping 0.7); every update reads only
      the previous iterate, so sweeps parallelize trivially. Kept as
      the cross-check for the colored sweeps.

    The residual tested against [tolerance] is the unrelaxed one,
    [max_j |update_j - pi_j|], so stopping criteria are comparable
    across methods.

    Observability: per-sweep [solver.residual] series,
    [solver.iterations] counter, [solver.final_residual],
    [solver.contraction] and [solver.colors] gauges. *)

type method_ = Jacobi | Gauss_seidel | Sor

val default_sor_omega : float

(** Parse a [mval solve --method] name: ["jacobi"], ["gs"] (or
    ["gauss-seidel"]), ["sor"]. *)
val method_of_name : string -> method_ option

val method_name : method_ -> string

type system = {
  size : int;
  in_row : int array;  (** length [size + 1] *)
  in_src : int array;  (** local source index per incoming transition *)
  in_rate : float array;
  exit : float array;  (** exit rate per local state; [0.0] rows are skipped *)
}

type config = {
  method_ : method_;
  omega : float;  (** [Sor] relaxation factor; ignored by the others *)
  tolerance : float;
  max_sweeps : int;
  pool : Mv_par.Pool.t option;
      (** parallel sweeps when [size > 1]; results are bitwise
          identical with or without it *)
}

(** [config ()] — [Gauss_seidel], omega {!default_sor_omega},
    tolerance [1e-13], max sweeps [200_000], no pool. *)
val config :
  ?method_:method_ ->
  ?omega:float ->
  ?tolerance:float ->
  ?max_sweeps:int ->
  ?pool:Mv_par.Pool.t ->
  unit ->
  config

type outcome = { sweeps : int; residual : float; converged : bool }

(** [run config sys pi] iterates in place on [pi] (length [sys.size],
    callers initialize it to a distribution). *)
val run : config -> system -> float array -> outcome

(**/**)

(** Exposed for tests: the colored order used by [Gauss_seidel]/[Sor]
    — [(order, class_start, nb_colors)]; within a class no two states
    are connected by a transition. *)
val coloring : system -> int array * int array * int
