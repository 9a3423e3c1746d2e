module Partition = Mv_bisim.Partition
module Label = Mv_lts.Label
module Sig_table = Mv_kern.Sig_table

(* Rates enter signatures as strings rounded to 12 significant digits;
   see the interface for the rationale. *)
let rate_key r = Printf.sprintf "%.12e" r

(* Predecessors through interactive and Markovian transitions alike, in
   CSR form: the sources of [d] are [src.(row.(d)) .. src.(row.(d+1)-1)]. *)
let predecessors imc =
  let n = Imc.nb_states imc in
  let row = Array.make (n + 1) 0 in
  let count d = row.(d + 1) <- row.(d + 1) + 1 in
  Imc.iter_interactive imc (fun _ _ d -> count d);
  Imc.iter_markovian imc (fun _ _ d -> count d);
  for d = 1 to n do
    row.(d) <- row.(d) + row.(d - 1)
  done;
  let src = Array.make row.(n) 0 in
  let fill = Array.sub row 0 n in
  let add s d =
    src.(fill.(d)) <- s;
    fill.(d) <- fill.(d) + 1
  in
  Imc.iter_interactive imc (fun s _ d -> add s d);
  Imc.iter_markovian imc (fun s _ d -> add s d);
  (row, src)

(* Signature refinement with the oracle's rounds, computing only the
   signatures that can change.

   An interactive move (l, b) packs into the single word
   [l * (n+1) + b]; Markovian rates accumulate per destination block
   into a scratch float array in per-state transition order (the order
   the oracle sums them in, so the roundings agree bitwise), are
   rounded by [rate_key], and enter the signature as [min_int; b1;
   rid1; b2; rid2; ...] with blocks ascending, where [rid] interns the
   rounded rate string. The [min_int] separator cannot collide with
   packed interactive words (nonnegative).

   Block ids are stable across rounds. A state's signature can change
   only when one of its successors changed block in the previous
   round; such states are dirty, and the clean states of a block [b]
   share one signature, [bsig.(b)], recorded in the round that last
   assigned states to [b]. Each round keys the dirty states by block
   and signature. In a block with clean states, the group whose
   signature is [bsig] keeps the id; in an all-dirty block the largest
   group does. Every other group gets a fresh id and dirties its
   predecessors. The blocks are then the oracle's, round for round; at
   the end they are renumbered by first occurrence in state order, as
   the oracle numbers them. *)
let partition imc =
  let n = Imc.nb_states imc in
  let rounds = Mv_obs.Obs.counter "lump.rounds" in
  let signatures = Mv_obs.Obs.counter "lump.signatures" in
  let blocks = Mv_obs.Obs.series "lump.blocks" in
  let base = n + 1 in
  let rate_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* memoized by the sum's bits, so each distinct sum is formatted once *)
  let rate_memo : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let rate_id r =
    let bits = Int64.bits_of_float r in
    match Hashtbl.find_opt rate_memo bits with
    | Some id -> id
    | None ->
      let key = rate_key r in
      let id =
        match Hashtbl.find_opt rate_ids key with
        | Some id -> id
        | None ->
          let id = Hashtbl.length rate_ids in
          Hashtbl.add rate_ids key id;
          id
      in
      Hashtbl.add rate_memo bits id;
      id
  in
  let block_of = Array.make n 0 in
  let racc = Array.make n 0.0 in
  let rtouched = Array.make n 0 in
  let buf = ref (Array.make 64 0) in
  let len = ref 0 in
  let push x =
    if !len >= Array.length !buf then begin
      let b = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- x;
    incr len
  in
  let signature s =
    len := 0;
    Imc.iter_interactive_out imc s (fun l d -> push ((l * base) + block_of.(d)));
    len := Sig_table.sort_dedup !buf !len;
    let nb_blocks = ref 0 in
    Imc.iter_markovian_out imc s (fun r d ->
        let b = block_of.(d) in
        (* rates are strictly positive, so 0.0 means untouched *)
        if racc.(b) = 0.0 then begin
          rtouched.(!nb_blocks) <- b;
          incr nb_blocks
        end;
        racc.(b) <- racc.(b) +. r);
    if !nb_blocks > 0 then begin
      push min_int;
      let nb = Sig_table.sort_dedup rtouched !nb_blocks in
      for j = 0 to nb - 1 do
        let b = rtouched.(j) in
        push b;
        push (rate_id racc.(b));
        racc.(b) <- 0.0
      done
    end;
    Array.sub !buf 0 !len
  in
  let pred_row, pred_src = predecessors imc in
  let table = Sig_table.create () in
  (* per block *)
  let size = Array.make n 0 in
  let bsig = Array.make n [||] in
  let bdirty = Array.make n 0 in
  let keeper = Array.make n (-1) in
  (* per group of one round's dirty states *)
  let gblock = Array.make n 0 in
  let gsig = Array.make n [||] in
  let gsize = Array.make n 0 in
  let gid = Array.make n 0 in
  (* [group.(i)] is the group of the [i]th dirty state; [queued.(s)] is
     the last round [s] was made dirty for *)
  let group = Array.make n 0 in
  let queued = Array.make n 1 in
  (* [Imc.make] guarantees n >= 1: one block to start from *)
  let count = ref 1 in
  size.(0) <- n;
  (* [dirty.(0 .. nd-1)] are this round's dirty states; [next] collects
     the next round's *)
  let rec loop round dirty nd next =
    Sig_table.reset table;
    for i = 0 to nd - 1 do
      let s = dirty.(i) in
      let b = block_of.(s) in
      let fresh = Sig_table.count table in
      let sg = signature s in
      let g = Sig_table.classify table ~block:b sg in
      if g = fresh then begin
        gblock.(g) <- b;
        gsig.(g) <- sg;
        gsize.(g) <- 0
      end;
      gsize.(g) <- gsize.(g) + 1;
      group.(i) <- g;
      bdirty.(b) <- bdirty.(b) + 1
    done;
    Mv_obs.Obs.add signatures nd;
    let nb_groups = Sig_table.count table in
    for g = 0 to nb_groups - 1 do
      let b = gblock.(g) in
      if bdirty.(b) < size.(b) then begin
        if gsig.(g) = bsig.(b) then keeper.(b) <- g
      end
      else if keeper.(b) < 0 || gsize.(g) > gsize.(keeper.(b)) then
        keeper.(b) <- g
    done;
    let count0 = !count in
    for g = 0 to nb_groups - 1 do
      let b = gblock.(g) in
      let id =
        if keeper.(b) = g then b
        else begin
          let id = !count in
          incr count;
          size.(b) <- size.(b) - gsize.(g);
          size.(id) <- gsize.(g);
          id
        end
      in
      gid.(g) <- id;
      bsig.(id) <- gsig.(g)
    done;
    for g = 0 to nb_groups - 1 do
      let b = gblock.(g) in
      bdirty.(b) <- 0;
      keeper.(b) <- -1
    done;
    let nb_next = ref 0 in
    for i = 0 to nd - 1 do
      let s = dirty.(i) in
      let id = gid.(group.(i)) in
      if id <> block_of.(s) then begin
        block_of.(s) <- id;
        for e = pred_row.(s) to pred_row.(s + 1) - 1 do
          let p = pred_src.(e) in
          if queued.(p) <> round + 1 then begin
            queued.(p) <- round + 1;
            next.(!nb_next) <- p;
            incr nb_next
          end
        done
      end
    done;
    Mv_obs.Obs.incr rounds;
    Mv_obs.Obs.push blocks (float_of_int !count);
    Mv_obs.Obs.progress (fun () ->
        Printf.sprintf "lump: %d block(s) over %d state(s)" !count n);
    if !count <> count0 then loop (round + 1) next !nb_next dirty
  in
  loop 1 (Array.init n Fun.id) n (Array.make n 0);
  let canonical = Array.make !count (-1) in
  let nb = ref 0 in
  let block_of =
    Array.map
      (fun b ->
         if canonical.(b) < 0 then begin
           canonical.(b) <- !nb;
           incr nb
         end;
         canonical.(b))
      block_of
  in
  { Partition.block_of; count = !nb }

let partition imc = Mv_obs.Obs.span "imc.lump" (fun () -> partition imc)

let quotient imc (p : Partition.t) =
  let interactive = ref [] in
  Imc.iter_interactive imc (fun s l d ->
      interactive := (p.block_of.(s), l, p.block_of.(d)) :: !interactive);
  (* Markovian rates: sum over the transitions of one representative
     per block (lumpability guarantees any representative agrees). *)
  let representative = Array.make p.count (-1) in
  for s = Imc.nb_states imc - 1 downto 0 do
    representative.(p.block_of.(s)) <- s
  done;
  let markovian = ref [] in
  Array.iteri
    (fun block s ->
       if s >= 0 then begin
         let acc = Hashtbl.create 4 in
         List.iter
           (fun (r, d) ->
              let dst = p.block_of.(d) in
              let current = Option.value ~default:0.0 (Hashtbl.find_opt acc dst) in
              Hashtbl.replace acc dst (current +. r))
           (Imc.markovian_out imc s);
         Hashtbl.iter (fun dst r -> markovian := (block, r, dst) :: !markovian) acc
       end)
    representative;
  Imc.make ~nb_states:p.count
    ~initial:p.block_of.(Imc.initial imc)
    ~labels:(Imc.labels imc)
    ~interactive:(List.sort_uniq compare !interactive)
    ~markovian:!markovian

let minimize imc = quotient imc (partition imc)

let equivalent a b =
  (* direct disjoint union (keeps Markovian multiplicities intact) *)
  let offset = Imc.nb_states a in
  let labels = Label.create () in
  let interactive = ref [] and markovian = ref [] in
  Imc.iter_interactive a (fun s l d ->
      interactive :=
        (s, Label.intern labels (Label.name (Imc.labels a) l), d) :: !interactive);
  Imc.iter_markovian a (fun s r d -> markovian := (s, r, d) :: !markovian);
  Imc.iter_interactive b (fun s l d ->
      interactive :=
        (s + offset, Label.intern labels (Label.name (Imc.labels b) l), d + offset)
        :: !interactive);
  Imc.iter_markovian b (fun s r d ->
      markovian := (s + offset, r, d + offset) :: !markovian);
  let union =
    Imc.make
      ~nb_states:(offset + Imc.nb_states b)
      ~initial:(Imc.initial a) ~labels ~interactive:!interactive
      ~markovian:!markovian
  in
  let p = partition union in
  Partition.same_block p (Imc.initial a) (offset + Imc.initial b)
