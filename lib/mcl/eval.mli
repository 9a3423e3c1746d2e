(** Model checking of alternation-free formulas over an explicit LTS.

    The query is solved as a boolean equation system with one variable
    per (subformula, state) pair, in time linear in the LTS:
    O(|formula| (n + m)) for n states and m transitions. Closed
    subformulas are solved first, each modality by one pass over the
    transitions. A fixpoint is a region of equations of its sign: a
    least fixpoint propagates truth from a worklist back through the
    incoming transitions (an index the call builds on first use and
    drops when it returns), a box keeping one counter per state; a
    greatest fixpoint is the complement of its dual least fixpoint.
    The counter [mcl.propagations] records the work done, at most
    [2 |formula| (n + m)], once per call. *)

(** [sat lts formula] is the set of states satisfying [formula].
    Raises {!Formula.Ill_formed} when [formula] violates the
    restrictions of {!Formula.check}. *)
val sat : Mv_lts.Lts.t -> Formula.t -> Mv_util.Bitset.t

(** [holds lts formula] — does the initial state satisfy it? *)
val holds : Mv_lts.Lts.t -> Formula.t -> bool

(** [witnesses lts formula ~limit] lists up to [limit] satisfying
    states (diagnostic helper). *)
val witnesses : Mv_lts.Lts.t -> Formula.t -> limit:int -> int list
