module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

(* Saturated ("double arrow") transition system:
   s ==tau==> t  iff  s tau* t
   s ==a==> t    iff  s tau* a tau* t (a visible).
   Weak bisimulation on the original LTS coincides with strong
   bisimulation on the saturation (with the convention that every
   state has the reflexive tau arrow, which the signature encoding
   makes harmless because it is shared by all states of a block). *)

let tau_reach lts =
  (* tau-closure per state, as sorted int lists (transitive) *)
  let n = Lts.nb_states lts in
  let closure = Array.make n [] in
  for s = 0 to n - 1 do
    let seen = Hashtbl.create 8 in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        Lts.iter_out lts v (fun label dst ->
            if label = Label.tau then visit dst)
      end
    in
    visit s;
    closure.(s) <- List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])
  done;
  closure

let saturate lts =
  let n = Lts.nb_states lts in
  let closure = tau_reach lts in
  let transitions = Hashtbl.create 1024 in
  (* weak tau arrows (reflexive closure included) *)
  for s = 0 to n - 1 do
    List.iter
      (fun t -> Hashtbl.replace transitions (s, Label.tau, t) ())
      closure.(s)
  done;
  (* weak visible arrows: s tau* u -a-> v tau* t *)
  for s = 0 to n - 1 do
    List.iter
      (fun u ->
         Lts.iter_out lts u (fun label v ->
             if label <> Label.tau then
               List.iter
                 (fun t -> Hashtbl.replace transitions (s, label, t) ())
                 closure.(v)))
      closure.(s)
  done;
  let triples = Hashtbl.fold (fun (s, l, t) () acc -> (s, l, t) :: acc) transitions [] in
  Lts.make ~nb_states:n ~initial:(Lts.initial lts) ~labels:(Lts.labels lts) triples

let partition lts = Strong.partition (saturate lts)

let minimize lts = Lts.restrict_reachable (Quotient.weak lts (partition lts))

let equivalent a b =
  let union, offset = Union.disjoint a b in
  let p = partition union in
  Partition.same_block p (Lts.initial a) (offset + Lts.initial b)
