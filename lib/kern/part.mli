(** Refinable partition of [0 .. n-1] with O(1) mark and O(marked)
    split, after Valmari's "Refinable partition" data structure.

    States of one block occupy a contiguous slice of an element array;
    marking a state swaps it into the marked prefix of its block's
    slice, and splitting cuts the slice at the mark boundary. No
    allocation after {!create}. *)

type t

(** [create n] is the one-block partition over [n >= 1] states. *)
val create : int -> t

(** Number of blocks. *)
val count : t -> int

(** Block id of a state. *)
val block_of : t -> int -> int

(** Number of states in a block. *)
val size : t -> int -> int

(** Number of currently marked states in a block. *)
val marked : t -> int -> int

(** Iterate over the states of a block (unspecified order). *)
val iter_block : t -> int -> (int -> unit) -> unit

(** [mark p s] marks [s] inside its block; no-op if already marked. *)
val mark : t -> int -> unit

(** [split_marked p b] cuts block [b] at its mark boundary. The marked
    states become a fresh block (its id is returned) and all marks in
    [b] are cleared. If {e every} state of [b] was marked the block is
    left whole, marks are cleared, and [-1] is returned. Must only be
    called when [marked p b > 0]. *)
val split_marked : t -> int -> int

(** Canonical renumbering: block ids reassigned by first occurrence in
    state order (the numbering the signature-refinement engines
    produce). Returns [(block_of, count)]. *)
val assignment : t -> int array * int
