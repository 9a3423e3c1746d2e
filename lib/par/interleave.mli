(** Deterministic schedule exploration for lock-free algorithms
    (a DSCheck-style model checker, self-contained on OCaml effects).

    A bounded concurrent program is expressed against the virtual
    atomics {!A}: every [get]/[set]/[compare_and_set]/[fetch_and_add]
    is a yield point of a cooperative scheduler, and {!explore}
    enumerates {e every} interleaving of those atomic accesses by
    replay-based depth-first search (threads are re-run from scratch
    for each schedule, so no multi-shot continuations are needed).
    Because OCaml atomics are sequentially consistent, enumerating
    interleavings of atomic accesses is a sound and complete
    exploration of the behaviours the real {!Atomics.Real} instance
    can exhibit — which is exactly why {!Deque.Make} is functorized
    over {!Atomics.S}: the model checker runs the shipped algorithm,
    not a copy.

    Scope and limits: programs must be bounded (a few threads, a
    handful of atomic accesses each — the schedule count is
    multinomial in the step counts) and must touch shared state only
    through {!A}. Code before a thread's first atomic access runs at
    thread creation, in list order; code between accesses runs
    atomically with the preceding access. There is no partial-order
    reduction, so keep programs small; [max_schedules] (default
    200_000) turns an accidental blow-up into a clean failure. *)

(** Virtual atomics: each operation yields to the exploration
    scheduler. Only meaningful inside {!explore}'s callbacks —
    performing an operation outside raises [Effect.Unhandled]. *)
module A : Atomics.S

type stats = {
  schedules : int;  (** distinct complete interleavings executed *)
  steps : int;  (** total atomic accesses across all schedules *)
}

(** Raised by {!explore} when [check] returns [false] on some
    schedule; [schedule] is the failing thread-choice sequence (one
    thread index per atomic access, a deterministic repro). *)
exception Violation of { schedule : int list; message : string }

(** [explore ~setup ~threads ~check ()] — for every interleaving:
    runs [setup ()] alone (build the shared state here), then the
    [threads] on the shared state under the exploring scheduler, then
    [check] alone on the final state. Raises {!Violation} on the first
    schedule whose [check] fails, [Failure] past [max_schedules], and
    re-raises exceptions from the callbacks unchanged. *)
val explore :
  ?max_schedules:int ->
  setup:(unit -> 'st) ->
  threads:('st -> unit) list ->
  check:('st -> bool) ->
  unit ->
  stats
