(** Partitions of state spaces, the common result type of the strong,
    branching and lumping minimizers.

    A partition maps every state to a dense block id. The minimizers
    number blocks by first occurrence in state order, so the same
    classes always get the same ids, and quotients built from them are
    byte-identical. *)

type t = {
  block_of : int array; (** state -> block id in [0 .. count-1] *)
  count : int;
}

(** All states in a single block. *)
val trivial : int -> t

(** [same_block p a b]. *)
val same_block : t -> int -> int -> bool
