(** Per-request computation budgets.

    A budget bounds how much work one flow invocation may perform: a
    {e state-count} budget caps the number of states the explorer (or
    a minimization input) may touch, and a {e wall-time} budget caps
    elapsed seconds. Budgets are enforced {e cooperatively}: the flow
    steps call {!check}/{!tick} at their natural checkpoints (every
    explorer batch, every pipeline step boundary), so an over-budget
    request stops within one checkpoint of the limit instead of being
    killed mid-structure. Exceeding a budget raises {!Exceeded}, which
    [mval] reports as a structured error (exit code 5) and the
    [mvald] daemon maps to a [budget_exceeded] protocol error — never
    a crash or a hung connection.

    Budgets are attached to a run through
    {!Flow.Config.with_budget}; they are deliberately {e not} part of
    {!Mv_store.Cache} keys (they bound computation, not results). A
    cached LTS is still checked against the state budget, so a warm
    run fails where a cold one would. *)

type t

(** What was exceeded: [resource] is ["states"] or ["wall"], [message]
    is human-readable detail including the limit. *)
type violation = { resource : string; message : string }

exception Exceeded of violation

(** [create ?max_states ?wall_s ()] — a budget allowing up to
    [max_states] touched states and [wall_s] elapsed seconds, counted
    from this call. Omitted dimensions are unlimited. *)
val create : ?max_states:int -> ?wall_s:float -> unit -> t

(** The state-count limit, if any (the flow uses it to tighten the
    explorer bound). *)
val max_states : t -> int option

(** Raise {!Exceeded} if the wall-time budget has run out. *)
val tick : t -> unit

(** [check t ~states] — {!tick}, then raise {!Exceeded} if [states]
    exceeds the state budget. *)
val check : t -> states:int -> unit

(** Elapsed seconds since {!create}. *)
val elapsed_s : t -> float
