module Partition = Mv_bisim.Partition
module Label = Mv_lts.Label
module Sig_table = Mv_kern.Sig_table

(* Rates enter signatures as strings rounded to 12 significant digits;
   see the interface for the rationale. *)
let rate_key r = Printf.sprintf "%.12e" r

(* Signature refinement over the Mv_kern signature table. An
   interactive move (l, b) packs into the single word [l * (n+1) + b];
   Markovian rates accumulate per destination block into a scratch
   float array in per-state transition order (the order the oracle
   sums them in, so the roundings agree bitwise), are rounded by
   [rate_key], and enter the signature as [min_int; b1; rid1; b2; rid2;
   ...] with blocks ascending, where [rid] interns the rounded rate
   string. The [min_int] separator cannot collide with packed
   interactive words (nonnegative). Each round keys a state by its old
   block and its signature, and new blocks are numbered by first
   occurrence in state order. *)
let partition imc =
  let n = Imc.nb_states imc in
  let rounds = Mv_obs.Obs.counter "lump.rounds" in
  let blocks = Mv_obs.Obs.series "lump.blocks" in
  let base = n + 1 in
  let table = Sig_table.create () in
  let rate_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rate_id r =
    let key = rate_key r in
    match Hashtbl.find_opt rate_ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length rate_ids in
      Hashtbl.add rate_ids key id;
      id
  in
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
  let rec loop (p : Partition.t) =
    Sig_table.reset table;
    let block_of = Array.make n 0 in
    for s = 0 to n - 1 do
      len := 0;
      Imc.iter_interactive_out imc s (fun l d ->
          push ((l * base) + p.block_of.(d)));
      len := Sig_table.sort_dedup !buf !len;
      let nb_blocks = ref 0 in
      Imc.iter_markovian_out imc s (fun r d ->
          let b = p.block_of.(d) in
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
      block_of.(s) <-
        Sig_table.classify table ~block:p.block_of.(s) (Array.sub !buf 0 !len)
    done;
    let p' : Partition.t = { block_of; count = Sig_table.count table } in
    Mv_obs.Obs.incr rounds;
    Mv_obs.Obs.push blocks (float_of_int p'.count);
    Mv_obs.Obs.progress (fun () ->
        Printf.sprintf "lump: %d block(s) over %d state(s)" p'.count n);
    if p'.count = p.count then p' else loop p'
  in
  loop (Partition.trivial n)

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
