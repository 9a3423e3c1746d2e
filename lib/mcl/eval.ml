module Lts = Mv_lts.Lts
module Bitset = Mv_util.Bitset

(* The query is an implicit boolean equation system with one variable
   per (subformula, state) pair. A closed subformula that is not a
   fixpoint is a set operation on the sets of its closed arguments; a
   modality is one pass over the transitions. A fixpoint is solved as
   a region: its body, minus the closed subformulas inside it, which
   are solved first (recursively) and enter the region as constant
   sets. {!Formula.check} makes every fixpoint of the other sign, every
   [not] argument and every left side of [=>] closed, so all the
   fixpoints left in a region share its sign.

   A least-fixpoint region starts false and propagates truth: a node
   that turns true at a state is pushed on a worklist, and popping it
   notifies its listeners, that is its parent and, for a binder, the
   parents of its variable's occurrences. [<a>] and [\[a\]] parents
   take the truth back through the state's incoming [a]-transitions; a
   box counts, per state, the [a]-successors not yet true. A
   greatest-fixpoint region is solved as its dual (and/or, <a>/[a] and
   constants swapped), a least-fixpoint region, whose set is then
   complemented. Each (node, state) pair turns true at most once and
   then scans the state's incoming transitions once per listener, so a
   region costs O(|region| (n + m)). *)

type node =
  | Leaf (* a constant set: a closed subformula *)
  | Or (* also a fixpoint binder: true where its body is *)
  | And of int * int
  | Diamond of Bitset.t
  | Box of Bitset.t * int array (* per state: a-successors still false *)

(* Is every variable of [f] bound inside it or in [bound]? *)
let rec closed bound = function
  | Formula.True | Formula.False -> true
  | Formula.Var x -> List.mem x bound
  | Formula.Not f | Formula.Diamond (_, f) | Formula.Box (_, f) ->
    closed bound f
  | Formula.And (a, b) | Formula.Or (a, b) | Formula.Implies (a, b) ->
    closed bound a && closed bound b
  | Formula.Mu (x, f) | Formula.Nu (x, f) -> closed (x :: bound) f

let sat lts formula =
  Formula.check formula;
  let n = Lts.nb_states lts in
  let compiled = Hashtbl.create 16 in
  let action_set alpha =
    match Hashtbl.find_opt compiled alpha with
    | Some set -> set
    | None ->
      let set = Action_formula.compile lts alpha in
      Hashtbl.replace compiled alpha set;
      set
  in
  let work = ref 0 in
  (* [<a> target], or [\[a\] target] with [box]: s satisfies [a] phi
     iff no a-move leaves phi *)
  let modality ~box alpha target =
    work := !work + Lts.nb_transitions lts;
    let result = Bitset.create n in
    Lts.iter_transitions lts (fun s l d ->
        if Bitset.mem alpha l && Bitset.mem target d <> box then
          Bitset.add result s);
    if box then Bitset.complement result;
    result
  in
  (* the incoming transitions of each state, as [src lsl bits lor
     label], built on first use and shared by the regions. The index is
     the call's own: it is garbage once the call returns, where one
     cached on the LTS would live as long as the LTS. *)
  let bits =
    let labels = Mv_lts.Label.count (Lts.labels lts) in
    let rec width b = if 1 lsl b >= labels then b else width (b + 1) in
    width 1
  in
  let incoming =
    lazy
      (let row = Array.make (n + 1) 0 in
       let packed = Array.make (max 1 (Lts.nb_transitions lts)) 0 in
       Lts.iter_transitions lts (fun _ _ d -> row.(d) <- row.(d) + 1);
       for s = 1 to n do
         row.(s) <- row.(s) + row.(s - 1)
       done;
       (* row.(d) is one past the end of row d: fill each row from its
          end, which leaves row.(d) at its start *)
       Lts.iter_transitions lts (fun s l d ->
           row.(d) <- row.(d) - 1;
           packed.(row.(d)) <- (s lsl bits) lor l);
       (row, packed))
  in
  let iter_in t f =
    let row, packed = Lazy.force incoming in
    let mask = (1 lsl bits) - 1 in
    for k = row.(t) to row.(t + 1) - 1 do
      f (packed.(k) land mask) (packed.(k) lsr bits)
    done
  in
  (* the worklist, shared by the regions: (node, state) as
     [node * n + state] *)
  let stack = ref (Array.make 64 0) and top = ref 0 in
  let push x =
    if !top = Array.length !stack then begin
      let bigger = Array.make (2 * !top) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- x;
    incr top
  in
  (* the set of a closed formula *)
  let rec solve formula =
    match formula with
    | Formula.True -> Bitset.full n
    | Formula.False -> Bitset.create n
    | Formula.Not a ->
      let set = solve a in
      Bitset.complement set;
      set
    | Formula.And (a, b) ->
      let set = solve a in
      Bitset.inter_into ~into:set (solve b);
      set
    | Formula.Or (a, b) ->
      let set = solve a in
      Bitset.union_into ~into:set (solve b);
      set
    | Formula.Implies (a, b) ->
      let set = solve a in
      Bitset.complement set;
      Bitset.union_into ~into:set (solve b);
      set
    | Formula.Diamond (alpha, a) ->
      modality ~box:false (action_set alpha) (solve a)
    | Formula.Box (alpha, a) -> modality ~box:true (action_set alpha) (solve a)
    | Formula.Mu (x, body) -> region ~dual:false x body
    | Formula.Nu (x, body) -> region ~dual:true x body
    | Formula.Var _ -> assert false (* not closed *)
  and region ~dual x body =
    let kinds = ref [] and sets = ref [] and count = ref 0 in
    let edges = ref [] in
    let node kind set children =
      kinds := kind :: !kinds;
      sets := set :: !sets;
      List.iter (fun c -> edges := (c, !count) :: !edges) children;
      incr count;
      !count - 1
    in
    let rec binder env x body =
      let v = node Or (Bitset.create n) [] in
      let c = compile ((x, v) :: env) body in
      edges := (c, v) :: !edges;
      v
    and compile env formula =
      if closed [] formula then begin
        let set = solve formula in
        if dual then Bitset.complement set;
        node Leaf set []
      end
      else
        match formula with
        | Formula.Var x -> List.assoc x env
        | Formula.Mu (x, body) | Formula.Nu (x, body) -> binder env x body
        | Formula.Implies (a, b) ->
          compile env (Formula.Or (Formula.Not a, b))
        | Formula.And (a, b) | Formula.Or (a, b) ->
          let ca = compile env a in
          let cb = compile env b in
          let conj =
            (match formula with Formula.And _ -> true | _ -> false) <> dual
          in
          node
            (if conj then And (ca, cb) else Or)
            (Bitset.create n) [ ca; cb ]
        | Formula.Diamond (alpha, a) | Formula.Box (alpha, a) ->
          let c = compile env a in
          let alpha = action_set alpha in
          let box =
            (match formula with Formula.Box _ -> true | _ -> false) <> dual
          in
          let kind =
            if box then begin
              let pending = Array.make n 0 in
              work := !work + Lts.nb_transitions lts;
              Lts.iter_transitions lts (fun s l _ ->
                  if Bitset.mem alpha l then pending.(s) <- pending.(s) + 1);
              Box (alpha, pending)
            end
            else Diamond alpha
          in
          node kind (Bitset.create n) [ c ]
        | Formula.True | Formula.False | Formula.Not _ ->
          assert false (* closed *)
    in
    let root = binder [] x body in
    let kind = Array.of_list (List.rev !kinds)
    and value = Array.of_list (List.rev !sets) in
    let listeners = Array.make !count [] in
    List.iter (fun (c, p) -> listeners.(c) <- p :: listeners.(c)) !edges;
    let mark v s =
      if not (Bitset.mem value.(v) s) then begin
        Bitset.add value.(v) s;
        push ((v * n) + s)
      end
    in
    (* a child of [p] turned true at [t] *)
    let notify t p =
      match kind.(p) with
      | Leaf -> ()
      | Or -> mark p t
      | And (a, b) ->
        if Bitset.mem value.(a) t && Bitset.mem value.(b) t then mark p t
      | Diamond alpha ->
        iter_in t (fun l s ->
            incr work;
            if Bitset.mem alpha l then mark p s)
      | Box (alpha, pending) ->
        iter_in t (fun l s ->
            incr work;
            if Bitset.mem alpha l then begin
              pending.(s) <- pending.(s) - 1;
              if pending.(s) = 0 then mark p s
            end)
    in
    let fire v t =
      incr work;
      List.iter (notify t) listeners.(v)
    in
    let drain () =
      while !top > 0 do
        decr top;
        let x = !stack.(!top) in
        fire (x / n) (x mod n)
      done
    in
    (* the seeds: the constants, and the states with no a-successor
       under a box *)
    Array.iteri
      (fun v k ->
         match k with
         | Leaf ->
           Bitset.iter
             (fun t ->
                fire v t;
                drain ())
             value.(v)
         | Box (_, pending) ->
           Array.iteri
             (fun s count ->
                if count = 0 then begin
                  mark v s;
                  drain ()
                end)
             pending
         | Or | And _ | Diamond _ -> ())
      kind;
    let result = value.(root) in
    if dual then Bitset.complement result;
    result
  in
  let result = solve formula in
  Mv_obs.Obs.add (Mv_obs.Obs.counter "mcl.propagations") !work;
  result

let holds lts formula = Bitset.mem (sat lts formula) (Lts.initial lts)

let witnesses lts formula ~limit =
  let set = sat lts formula in
  let out = ref [] in
  let count = ref 0 in
  (try
     Bitset.iter
       (fun s ->
          if !count >= limit then raise Exit;
          incr count;
          out := s :: !out)
       set
   with Exit -> ());
  List.rev !out
