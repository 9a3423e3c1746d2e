(** Explicit labeled transition systems.

    States are dense integers [0 .. nb_states-1]; labels are indices in
    an interned {!Label.table} where index {!Label.tau} is the internal
    action. Transitions are stored sorted by source state with a row
    index, so per-state iteration is allocation-free. *)

type t

(** [make ~nb_states ~initial ~labels transitions] builds an LTS.
    Duplicate transitions are removed; [initial] must be a valid state.
    The label table is captured by reference (callers should not intern
    new labels into it afterwards unless they also add transitions). *)
val make :
  nb_states:int ->
  initial:int ->
  labels:Label.table ->
  (int * int * int) list ->
  t

(** Like {!make} but from an array (left unchanged). *)
val make_array :
  nb_states:int ->
  initial:int ->
  labels:Label.table ->
  (int * int * int) array ->
  t

val nb_states : t -> int
val nb_transitions : t -> int
val initial : t -> int
val labels : t -> Label.table

(** [iter_out lts s f] applies [f label dst] to every outgoing
    transition of [s]. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

(** [fold_out lts s f init] folds over outgoing transitions. *)
val fold_out : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a

(** [out_degree lts s] is the number of outgoing transitions of [s]. *)
val out_degree : t -> int -> int

(** [iter_transitions lts f] applies [f src label dst] to every
    transition. *)
val iter_transitions : t -> (int -> int -> int -> unit) -> unit

(** [has_transition lts src label dst] — membership test. *)
val has_transition : t -> int -> int -> int -> bool

(** States with no outgoing transitions. *)
val deadlocks : t -> int list

(** [reachable lts] is the set of states reachable from the initial
    state. *)
val reachable : t -> Mv_util.Bitset.t

(** [restrict_reachable lts] drops unreachable states, renumbering the
    survivors (initial state becomes 0). *)
val restrict_reachable : t -> t

(** [hide lts ~gates] renames to tau every label whose {!Label.gate}
    belongs to [gates]. *)
val hide : t -> gates:string list -> t

(** [hide_all_except lts ~gates] renames to tau every label whose gate
    is {e not} in [gates] (tau stays tau). *)
val hide_all_except : t -> gates:string list -> t

(** [rename lts f] renames labels: [f name] returns the new printed
    name ([None] keeps the label unchanged). Tau cannot be renamed. *)
val rename : t -> (string -> string option) -> t

(** [relabel lts f] rebuilds the LTS mapping every transition through
    [f src label dst -> (src', name', dst')] over a fresh label table,
    keeping [nb_states] and [initial]. *)
val relabel : t -> (int -> int -> int -> int * string * int) -> t

(** All labels that actually occur, as printed names (tau included when
    present). *)
val occurring_labels : t -> string list

(** [pp] prints a short summary: states, transitions, labels. *)
val pp : Format.formatter -> t -> unit
