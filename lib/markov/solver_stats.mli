(** Outcome of a Markov solve.

    Every Markov solve returns one of these next to its vector or
    passage time instead of discarding the information: how many sweeps
    ran (0 for a direct elimination), the final residual (max component
    change of the last sweep), and whether the stopping tolerance was
    reached before the iteration budget ran out. Callers such as
    [mval solve] use [converged] to warn rather than silently print a
    stale result. *)

type t = {
  iterations : int;
  residual : float; (** max component change in the final sweep *)
  converged : bool; (** residual reached the tolerance in budget *)
}

(** A direct (non-iterative) or trivially small solve: zero
    iterations, zero residual, converged. *)
val exact : t

(** Aggregate the stats of independent sub-solves (e.g. one per BSCC):
    iterations add up, residuals take the max, convergence is the
    conjunction. *)
val combine : t -> t -> t

val pp : Format.formatter -> t -> unit
