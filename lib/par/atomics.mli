(** The atomic primitives the lock-free structures are written
    against.

    {!Deque} takes its atomics as a functor argument instead of
    calling [Stdlib.Atomic] directly, so the {e same} algorithm code
    runs in two worlds:

    - production, instantiated with {!Real} (= [Stdlib.Atomic], whose
      operations are sequentially consistent per the OCaml memory
      model), and
    - the model-check suite, instantiated with {!Interleave.A}, whose
      operations are yield points of a deterministic scheduler that
      enumerates every interleaving of a bounded program.

    This is what makes the interleaving tests meaningful: they explore
    the shipped algorithm, not a re-implementation of it. Only the five
    operations below may be used by code that wants to be model
    checkable; in particular no blocking, no [Domain] primitives, and
    no unbounded retry loops that are not cut off by another thread's
    progress. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  (** [compare_and_set r seen v] — physical-equality CAS, like
      [Atomic.compare_and_set]. *)
  val compare_and_set : 'a t -> 'a -> 'a -> bool

  (** [fetch_and_add r n] returns the pre-increment value. *)
  val fetch_and_add : int t -> int -> int
end

(** [Stdlib.Atomic]: every operation is a sequentially consistent
    atomic access. *)
module Real : S with type 'a t = 'a Atomic.t
