(** Structural operational semantics of MVL behaviours.

    [moves spec b] computes the outgoing transitions of a closed
    behaviour term. Input offers are expanded over their finite
    domains; value matching in synchronizations falls out of the
    expansion (only moves with identical ground labels synchronize).

    The rules run over {e interned} terms: within one {!table}, every
    normalized behaviour is built once, with its children referenced
    as terms of the same table, so structurally equal behaviours are
    physically equal and their hash is computed once. A composite
    term's moves are assembled from its components' moves, which are
    derived once and cached on them. A table lives as long as its caller
    keeps it — one state-space exploration — and holds every term it
    ever met. *)

type move_label =
  | Tau
  | Exit_move of Value.t list (** termination, with its exit values *)
  | Rate_move of float
  | Act of string * string list (** gate, printed offer values *)

exception Semantics_error of string

(** Raised when unfolding process calls more than the fuel bound
    without reaching an action (unguarded recursion such as
    [process P := P]). *)
exception Unguarded_recursion of string

(** Printed label: ["i"], ["exit"], ["rate 2.5"], ["PUSH !3"]. *)
val label_string : move_label -> string

(** {1 Interned terms} *)

(** An intern table, with the specification whose processes its terms
    call. *)
type table

(** An interned normalized behaviour. Two terms of the same table are
    equal iff they are physically equal ([==]). *)
type term

type move = {
  label : move_label;
  name : string; (** [label_string label] *)
  target : term;
}

(** [table spec] is an empty table; [expect] pre-sizes it (a hint). *)
val table : ?expect:int -> Ast.spec -> table

(** [intern table b] is the term of [Ast.normalize b]. *)
val intern : table -> Ast.behavior -> term

(** The normalized behaviour a term stands for. *)
val behavior : term -> Ast.behavior

(** A hash consistent with [==], computed when the term was built. *)
val hash : term -> int

(** Outgoing moves of a term, in the order {!moves} lists them. They
    are assembled from the moves of the term's components, which are
    derived once and cached on them; the term's own list is not kept,
    as an exploration asks for it once. [fuel] bounds call unfolding
    (default 100) exactly as in {!moves}, whatever was cached before. *)
val successors : ?fuel:int -> table -> term -> move list

(** Outgoing moves of a behaviour, with each continuation normalized
    ({!Ast.normalize}). [fuel] bounds call unfolding (default 100):
    a call nested more than [fuel] unfoldings deep before an action
    raises {!Unguarded_recursion}. *)
val moves : ?fuel:int -> Ast.spec -> Ast.behavior -> (move_label * Ast.behavior) list
