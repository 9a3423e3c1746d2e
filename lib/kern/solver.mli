(** Steady-state solver kernels: a banded direct solve and CSR sweeps.

    The system is a local, contiguous view of one irreducible subset of
    a CTMC: states renumbered [0 .. size-1] (callers should use a BFS
    order, which keeps the band narrow and the sweeps' accesses local —
    see {!Mv_markov.Ctmc}), incoming transitions in CSR form, and
    per-state exit rates. Solves [pi_j = (sum_i pi_i q_ij) / E_j],
    normalized.

    {!run} is the single entry point; every front end (CLI, daemon
    ops, bench, {!Mv_markov.Ctmc}) builds the same {!config} record,
    so a method/tolerance choice means the same thing everywhere.

    With no method forced ([config.method_ = None], the default),
    {!run} measures the system's lower and upper bandwidth [bl] and
    [bu] outside its [border] columns (below) and solves it
    {e directly} when the elimination's
    [size * (bl + border) * (bu + border)] updates and its
    [size * (bl + bu + 1 + border)] floats are both within
    {!direct_max_updates} and {!direct_max_band_words}. Otherwise it
    runs [Gauss_seidel].

    The direct solve is Grassmann-Taksar-Heyman (GTH) elimination on
    the band, last state first, with the columns of the first [border]
    states kept dense: a state every other state may enter (the return
    node of a renewal chain, see {!Mv_markov.Ctmc}) costs one dense
    column instead of a band as wide as the chain, and eliminating the
    others never fills outside the band and those columns. With
    [border = 0] it is plain banded GTH. Every pivot is a sum of rates,
    so it needs no pivoting and is as accurate as a dense LU solve. The
    result must pass the same residual check as the sweeps; when a
    pivot is 0 (the system is not irreducible) or the residual is above
    the tolerance, [Gauss_seidel] continues from the eliminated vector
    (from [pi] as given after a zero pivot). The choice depends only
    on the system.

    Forcing [method_ = Some Gauss_seidel] skips the direct solve.
    [mval solve --method gs] forces it for the steady-state solves
    (each BSCC, and the absorption solve of a chain with several), not
    for the passage-time renewal solve of [--time-to-first], which
    takes no method. [Gauss_seidel] runs sequential in-place sweeps in
    the system's own state order (BFS order from {!Mv_markov.Ctmc}):
    each update reads the values already updated in the same sweep, so
    a correction travels all the way round a cycle in one sweep.

    The residual tested against [tolerance] is
    [max_j |update_j - pi_j|], for the direct solve as for the sweeps.
    {!Mv_markov.Ctmc} sends every Markov quantity through {!run}: the
    stationary vector of each BSCC, and the renewal chains behind
    passage times, accumulated rewards and absorption probabilities.

    Observability: per-sweep [solver.residual] series,
    [solver.iterations] counter, [solver.final_residual] and
    [solver.contraction] gauges; for the direct path the
    [solver.direct] and [solver.direct_fallbacks] counters and the
    [solver.bandwidth_lower] / [solver.bandwidth_upper] gauges. *)

type method_ = Gauss_seidel

(** Parse a [mval solve --method] name: ["gs"] (or ["gauss-seidel"]). *)
val method_of_name : string -> method_ option

val method_name : method_ -> string

type system = {
  size : int;
  border : int;
      (** the first [border] states' incoming columns are stored dense
          by the direct solve and left out of the bandwidths; [0] for a
          plain band *)
  in_row : int array;  (** length [size + 1] *)
  in_src : int array;  (** local source index per incoming transition *)
  in_rate : float array;
  exit : float array;  (** exit rate per local state; [0.0] rows are skipped *)
}

type config = {
  method_ : method_ option;
      (** [None]: the direct solve when the cost model allows it,
          [Gauss_seidel] otherwise *)
  tolerance : float;
  max_sweeps : int;
}

(** [config ()] — no forced method, tolerance [1e-13], max sweeps
    [200_000]. *)
val config :
  ?method_:method_ -> ?tolerance:float -> ?max_sweeps:int -> unit -> config

(** [sweeps] is [0] when the direct solve's result passed the
    residual check. *)
type outcome = { sweeps : int; residual : float; converged : bool }

(** [run config sys pi] solves in place on [pi] (length [sys.size],
    callers initialize it to a distribution). *)
val run : config -> system -> float array -> outcome

(** The largest update count, [size * (bl + border) * (bu + border)],
    that [run] eliminates with no method forced. *)
val direct_max_updates : float

(** The largest band plus border columns,
    [size * (bl + bu + 1 + border)] floats, that [run] eliminates with
    no method forced. *)
val direct_max_band_words : float

(**/**)

(** Exposed for tests: [(bl, bu)], the largest [i - j] and [j - i]
    over the transitions [i -> j] into states [j >= border]. *)
val bandwidths : system -> int * int

(** Exposed for tests: whether [run] with no forced method eliminates
    [system]. *)
val eliminates : system -> bool
