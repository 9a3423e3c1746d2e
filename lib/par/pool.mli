(** The pool handle: worker domains + chunking policy + parallel
    loops.

    This is the one entry point for parallel execution. A pool is
    created once per command invocation ([mval -j N]) and carries both
    the worker domains and the {!Chunk.policy} its loops use, so every
    engine handed the pool splits work the same way.

    OCaml domains are heavyweight (each maps to an OS thread with its
    own minor heap), so engines never spawn them per task: a pool of
    size 1 spawns no domains at all and runs everything inline, which
    is how the default [-j 1] keeps the sequential behaviour (and
    performance) of the pre-parallel code paths.

    Determinism contract (relied on by every engine): the set of
    indices executed, the chunk boundaries, and the reduction order
    are fixed before any worker starts — scheduling (who steals what)
    never changes {e what} runs, only {e where}. A {!for_} whose body
    writes only to slot [i] of an output array therefore produces
    bit-identical results at any [-j N]; {!map_reduce} reduces chunk
    results in ascending chunk order, so floating-point reductions are
    reproducible given the same chunk boundaries (use [Chunk.Fixed]
    when boundaries must also survive a pool-size change; [Auto]
    boundaries are pool-size-independent only above the 1024 cap). *)

type t

(** [create ~domains ()] — a pool of [domains] workers ([domains - 1]
    spawned domains plus the caller; values < 1 are clamped to 1)
    whose loops default to [chunk] (default {!Chunk.Auto}). *)
val create : ?chunk:Chunk.policy -> domains:int -> unit -> t

(** Number of workers (including the calling domain). *)
val size : t -> int

(** The policy loops use when not overridden per call. *)
val chunk_policy : t -> Chunk.policy

(** [scope ?chunk ~domains f] — [create], run [f pool], always
    [shutdown]. The only structured way to get a temporary pool. *)
val scope : ?chunk:Chunk.policy -> domains:int -> (t -> 'a) -> 'a

(** [run pool f] executes [f 0], ..., [f (size - 1)] concurrently, one
    call per worker, and returns when all have finished; exceptions
    raised by workers are re-raised here (first one wins). The raw
    fork-join primitive under the loops below — engines with bespoke
    work distribution (Refine, the [mvald] workers) use it directly.
    Nested [run] on the same pool is not allowed. The join establishes
    the happens-before edges that make worker writes (e.g. into
    disjoint array slots) visible to the caller. *)
val run : t -> (int -> unit) -> unit

(** [for_ ~pool ~lo ~hi f] runs [f i] for every [lo <= i < hi], each
    index exactly once, in parallel. Bodies must not touch shared
    mutable state except through disjoint slots or their own
    synchronization. [?chunk] overrides the pool's policy for this
    loop. *)
val for_ : ?chunk:Chunk.policy -> pool:t -> lo:int -> hi:int -> (int -> unit) -> unit

(** [chunks ~pool ~lo ~hi f] — chunk-grained variant: [f a b]
    processes the half-open range [[a, b)]. Use it when per-index
    closure calls would dominate. *)
val chunks :
  ?chunk:Chunk.policy -> pool:t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** [map_reduce ~pool ~lo ~hi ~map ~reduce ~init] computes
    [reduce (... (reduce init (fold of chunk 0)) ...) (fold of chunk
    k)], where the fold of a chunk is [reduce] applied left-to-right
    over [map i] in ascending index order, seeded with [init]. [init]
    must be a neutral element of [reduce] (it is folded in once per
    chunk). The result depends on the chunk boundaries but not on
    scheduling. *)
val map_reduce :
  ?chunk:Chunk.policy ->
  pool:t ->
  lo:int ->
  hi:int ->
  map:(int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  init:'a ->
  'a

(** The planned ranges a loop over [[lo, hi)] would use (ascending).
    Exposed for engines that key side tables off chunk ordinals. *)
val plan : ?chunk:Chunk.policy -> t -> lo:int -> hi:int -> (int * int) array

(** Park-and-join all spawned domains. The pool must not be used
    afterwards. Idempotent. *)
val shutdown : t -> unit

(** The runtime's recommended domain count for this machine (for
    [-j 0]-style auto selection). *)
val auto : unit -> int
