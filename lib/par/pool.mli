(** The pool handle: worker domains and the fork-join loop on them.

    This is the one entry point for parallel execution. A pool is
    created once per command invocation ([mval -j N]) and handed to
    the engines that still fan out: branching-signature rounds, DES
    replications and the [mvald] request workers.

    OCaml domains are heavyweight (each maps to an OS thread with its
    own minor heap), so engines never spawn them per task: a pool of
    size 1 spawns no domains at all and runs everything inline, which
    is how the default [-j 1] keeps the sequential behaviour (and
    performance) of the pre-parallel code paths.

    Determinism contract (relied on by every engine): {!for_} runs
    each index exactly once, whoever runs it. A body that writes only
    to slot [i] of an output array therefore produces bit-identical
    results at any [-j N]. *)

type t

(** [create ~domains ()] — a pool of [domains] workers ([domains - 1]
    spawned domains plus the caller; values < 1 are clamped to 1). *)
val create : domains:int -> unit -> t

(** Number of workers (including the calling domain). *)
val size : t -> int

(** [scope ~domains f] — [create], run [f pool], always [shutdown].
    The only structured way to get a temporary pool. *)
val scope : domains:int -> (t -> 'a) -> 'a

(** [run pool f] executes [f 0], ..., [f (size - 1)] concurrently, one
    call per worker, and returns when all have finished; exceptions
    raised by workers are re-raised here (first one wins) and the pool
    stays usable. The raw fork-join primitive under {!for_}; the
    [mvald] workers use it directly. Nested [run] on the same pool is
    not allowed. The join establishes the happens-before edges that
    make worker writes (e.g. into disjoint array slots) visible to the
    caller. *)
val run : t -> (int -> unit) -> unit

(** [for_ ~pool ~lo ~hi f] runs [f i] for every [lo <= i < hi], each
    index exactly once, in parallel. The range is cut into equal
    chunks (about eight per worker, at most 1,024 indices) before any
    worker starts, and workers claim them through one atomic cursor,
    in an order that keeps the chunks running at the same time far
    apart in the range. Bodies must not touch shared mutable state
    except through disjoint slots or their own synchronization. An
    exception from a body is re-raised as by {!run}. *)
val for_ : pool:t -> lo:int -> hi:int -> (int -> unit) -> unit

(** Park-and-join all spawned domains. The pool must not be used
    afterwards. Idempotent. *)
val shutdown : t -> unit

(** The runtime's recommended domain count for this machine (for
    [-j 0]-style auto selection). *)
val auto : unit -> int
