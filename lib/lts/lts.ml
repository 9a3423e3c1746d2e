module Bitset = Mv_util.Bitset

type t = {
  nb_states : int;
  initial : int;
  labels : Label.table;
  (* transitions sorted by (src, label, dst), deduplicated *)
  src : int array;
  lbl : int array;
  dst : int array;
  row : int array; (* row.(s) .. row.(s+1)-1 are the transitions of s *)
}

(* Sort the row [lo, hi) of the parallel arrays [lbl]/[dst] on (label,
   destination). Rows are short — BFS states have a handful of moves —
   so insertion sort; long rows go through a pair array. *)
let sort_row lbl dst lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let l = lbl.(i) and d = dst.(i) in
      let j = ref (i - 1) in
      while !j >= lo && (lbl.(!j) > l || (lbl.(!j) = l && dst.(!j) > d)) do
        lbl.(!j + 1) <- lbl.(!j);
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      lbl.(!j + 1) <- l;
      dst.(!j + 1) <- d
    done
  else begin
    let pairs = Array.init (hi - lo) (fun k -> (lbl.(lo + k), dst.(lo + k))) in
    Array.sort
      (fun ((l1 : int), (d1 : int)) (l2, d2) ->
         if l1 <> l2 then compare l1 l2 else compare d1 d2)
      pairs;
    Array.iteri
      (fun k (l, d) ->
         lbl.(lo + k) <- l;
         dst.(lo + k) <- d)
      pairs
  end

(* Counting sort by source, then each row sorted on (label,
   destination) and stripped of duplicates in place. *)
let make_array ~nb_states ~initial ~labels transitions =
  if initial < 0 || initial >= nb_states then invalid_arg "Lts.make: initial";
  let n = Array.length transitions in
  let row = Array.make (nb_states + 1) 0 in
  Array.iter
    (fun (s, _, d) ->
       if s < 0 || s >= nb_states || d < 0 || d >= nb_states then
         invalid_arg "Lts.make: state out of range";
       row.(s + 1) <- row.(s + 1) + 1)
    transitions;
  for s = 1 to nb_states do
    row.(s) <- row.(s) + row.(s - 1)
  done;
  let lbl = Array.make (max n 1) 0 and dst = Array.make (max n 1) 0 in
  let fill = Array.sub row 0 nb_states in
  Array.iter
    (fun (s, l, d) ->
       let j = fill.(s) in
       lbl.(j) <- l;
       dst.(j) <- d;
       fill.(s) <- j + 1)
    transitions;
  let m = ref 0 in
  for s = 0 to nb_states - 1 do
    let lo = row.(s) and hi = row.(s + 1) in
    sort_row lbl dst lo hi;
    row.(s) <- !m;
    for i = lo to hi - 1 do
      if i = lo || lbl.(i) <> lbl.(!m - 1) || dst.(i) <> dst.(!m - 1) then begin
        lbl.(!m) <- lbl.(i);
        dst.(!m) <- dst.(i);
        incr m
      end
    done
  done;
  let m = !m in
  row.(nb_states) <- m;
  let src = Array.make (max m 1) 0 in
  for s = 0 to nb_states - 1 do
    Array.fill src row.(s) (row.(s + 1) - row.(s)) s
  done;
  let lbl = if m = n then lbl else Array.sub lbl 0 (max m 1)
  and dst = if m = n then dst else Array.sub dst 0 (max m 1) in
  { nb_states; initial; labels; src; lbl; dst; row }

let make ~nb_states ~initial ~labels transitions =
  make_array ~nb_states ~initial ~labels (Array.of_list transitions)

let nb_states t = t.nb_states
let nb_transitions t = t.row.(t.nb_states)
let initial t = t.initial
let labels t = t.labels

let iter_out t s f =
  for i = t.row.(s) to t.row.(s + 1) - 1 do
    f t.lbl.(i) t.dst.(i)
  done

let fold_out t s f init =
  let acc = ref init in
  iter_out t s (fun l d -> acc := f l d !acc);
  !acc

let out_degree t s = t.row.(s + 1) - t.row.(s)

let iter_transitions t f =
  for i = 0 to nb_transitions t - 1 do
    f t.src.(i) t.lbl.(i) t.dst.(i)
  done

let has_transition t s l d =
  (* binary search in the sorted row of s *)
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c =
        match compare t.lbl.(mid) l with
        | 0 -> compare t.dst.(mid) d
        | c -> c
      in
      if c = 0 then true
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search t.row.(s) t.row.(s + 1)

let deadlocks t =
  let dead = ref [] in
  for s = t.nb_states - 1 downto 0 do
    if out_degree t s = 0 then dead := s :: !dead
  done;
  !dead

let reachable t =
  let seen = Bitset.create t.nb_states in
  let stack = ref [ t.initial ] in
  Bitset.add seen t.initial;
  let rec loop () =
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      iter_out t s (fun _ d ->
          if not (Bitset.mem seen d) then begin
            Bitset.add seen d;
            stack := d :: !stack
          end);
      loop ()
  in
  loop ();
  seen

let restrict_reachable t =
  let seen = reachable t in
  if Bitset.cardinal seen = t.nb_states then t
  else begin
    let renum = Array.make t.nb_states (-1) in
    let fresh = ref 0 in
    (* ensure initial gets id 0 *)
    renum.(t.initial) <- 0;
    fresh := 1;
    Bitset.iter
      (fun s -> if renum.(s) < 0 then begin renum.(s) <- !fresh; incr fresh end)
      seen;
    let transitions = ref [] in
    iter_transitions t (fun s l d ->
        if renum.(s) >= 0 && renum.(d) >= 0 then
          transitions := (renum.(s), l, renum.(d)) :: !transitions);
    make ~nb_states:!fresh ~initial:0 ~labels:t.labels !transitions
  end

let relabel t f =
  let labels = Label.create () in
  let transitions = ref [] in
  iter_transitions t (fun s l d ->
      let s', name, d' = f s l d in
      transitions := (s', Label.intern labels name, d') :: !transitions);
  make ~nb_states:t.nb_states ~initial:t.initial ~labels !transitions

let hide t ~gates =
  let hidden name = List.mem (Label.gate name) gates in
  relabel t (fun s l d ->
      let name = Label.name t.labels l in
      if l <> Label.tau && hidden name then (s, Label.tau_name, d)
      else (s, name, d))

let hide_all_except t ~gates =
  let kept name = List.mem (Label.gate name) gates in
  relabel t (fun s l d ->
      let name = Label.name t.labels l in
      if l <> Label.tau && not (kept name) then (s, Label.tau_name, d)
      else (s, name, d))

let rename t f =
  relabel t (fun s l d ->
      let name = Label.name t.labels l in
      if l = Label.tau then (s, name, d)
      else
        match f name with
        | Some name' -> (s, name', d)
        | None -> (s, name, d))

let occurring_labels t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  iter_transitions t (fun _ l _ ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.replace seen l ();
        out := Label.name t.labels l :: !out
      end);
  List.sort compare !out

let pp fmt t =
  Format.fprintf fmt "lts: %d states, %d transitions, %d labels, initial %d"
    t.nb_states (nb_transitions t) (Label.count t.labels) t.initial
