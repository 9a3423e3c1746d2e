(** Composition networks: the compositional-verification engine.

    A network is an expression over LTS leaves; {!evaluate} computes
    its LTS under one of two strategies:

    - [`Monolithic] evaluates operators directly (the naive product);
    - [`Compositional] minimizes every intermediate result modulo
      branching bisimulation before it is used — the paper's
      "refined approach based on compositional verification" that
      alternates generation and minimization to avoid state-space
      explosion.

    Both strategies yield branching-equivalent results; the report
    records the intermediate sizes so the saving can be measured. *)

type node =
  | Leaf of string * Mv_lts.Lts.t (** named component *)
  | Par of string list * node * node (** synchronization gate set *)
  | Hide of string list * node
  | Rename of (string * string) list * node

type strategy = [ `Monolithic | `Compositional ]

(** Composition-order planning for chains of [Par] nodes sharing one
    gate set (where [|[G]|] is associative and commutative, so any
    order is semantically valid):

    - [`Naive] evaluates the expression exactly as written
      (left-to-right for {!par_list});
    - [`Greedy] evaluates every chain member first (minimized under
      [`Compositional]), then repeatedly composes the pair with the
      smallest interface-size estimate
      [|a| * |b| / (1 + shared sync gates)] — tightly-coupled pairs
      compose (and shrink) early, free-interleaving pairs are
      postponed, which keeps the largest intermediate product small.

    The estimate also pre-sizes the product's pair table. Chains of
    length 2 and mixed-gate expressions are unaffected. *)
type plan = [ `Naive | `Greedy ]

type step = {
  description : string;
  states : int;
  transitions : int;
}

type report = {
  result : Mv_lts.Lts.t;
  steps : step list; (** in evaluation order *)
  peak_states : int; (** largest intermediate state count *)
}

(** [tick] is called with the state count of each step as it is
    recorded (every leaf, product, hiding, renaming and minimization),
    and may raise to abandon the evaluation; the flow checks its
    state budget there. *)
val evaluate :
  ?plan:plan ->
  ?tick:(states:int -> unit) ->
  strategy:strategy ->
  node ->
  report

(** Convenience: [par_list gates \[n1; ...\]] left-associates
    [Par gates]. *)
val par_list : string list -> node list -> node
