(** State formulas: alternation-free modal mu-calculus.

    Restrictions enforced by {!check}:
    - [Not] may only be applied to closed subformulas (otherwise
      fixpoints would lose monotonicity);
    - no fixpoint variable may appear under a fixpoint of the opposite
      sign nested inside its binder (alternation freedom);
    - every variable must be bound.

    The {!Macro} sub-module provides the CTL-style patterns used by the
    verification flow. *)

type t =
  | True
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Diamond of Action_formula.t * t (** possibility: some move *)
  | Box of Action_formula.t * t (** necessity: all moves *)
  | Mu of string * t (** least fixpoint *)
  | Nu of string * t (** greatest fixpoint *)
  | Var of string

(** Raised by {!check} with a human-readable explanation. *)
exception Ill_formed of string

(** Regular formulas over actions (the PDL-style modalities of CADP's
    MCL): [<R> phi] — some [R]-path leads to a [phi]-state; [\[R\] phi]
    — all [R]-paths do. Desugared into plain fixpoint formulas, so
    [\[true* . error\] false] is the usual safety idiom. Diamond
    desugars stars to least fixpoints and box to greatest, so a formula
    using only one polarity of regular modality stays
    alternation-free. *)
module Regex : sig
  type formula := t

  type t =
    | Act of Action_formula.t (** one action *)
    | Seq of t * t (** concatenation *)
    | Alt of t * t (** union *)
    | Star of t (** zero or more repetitions *)

  (** [diamond r phi] = [<r> phi]. *)
  val diamond : t -> formula -> formula

  (** [box r phi] = [\[r\] phi]. *)
  val box : t -> formula -> formula
end

(** Validate the restrictions above. *)
val check : t -> unit

(** [invariant f] is [Some phi] when [f] is [nu X . (phi and \[any\] X)]
    with [phi] closed: [phi] holds on every reachable state. This is the
    shape of [\[true*\] phi], {!Macro.always} [phi] and
    {!Macro.deadlock_free}; a violation is witnessed by a path to a
    state outside [phi]. *)
val invariant : t -> t option

val pp : Format.formatter -> t -> unit

(** Common property patterns. *)
module Macro : sig
  (** Some transition is always possible (no reachable deadlock):
      [nu X . <any> true and \[any\] X]. *)
  val deadlock_free : t

  (** [always phi] — AG: [phi] holds on every reachable state. *)
  val always : t -> t

  (** [possibly phi] — EF: some path reaches a [phi]-state. *)
  val possibly : t -> t

  (** [inevitably phi] — AF on finite paths: every maximal path reaches
      a [phi]-state (requires freedom from invisible divergence to be
      meaningful; evaluated literally as
      [mu X . phi or (<any> true and \[any\] X)]). *)
  val inevitably : t -> t

  (** [can_do alpha] — an [alpha]-move is enabled. *)
  val can_do : Action_formula.t -> t

  (** [never alpha] — no reachable state enables [alpha]. *)
  val never : Action_formula.t -> t

  (** [inevitably_action alpha] — on every maximal path an [alpha]
      eventually occurs: [mu X . <any> true and \[not alpha\] X]. *)
  val inevitably_action : Action_formula.t -> t

  (** [response ~trigger ~reaction] — after every [trigger], a
      [reaction] is inevitable. *)
  val response : trigger:Action_formula.t -> reaction:Action_formula.t -> t
end
