module Obs = Mv_obs.Obs

(* The coarsest strong bisimulation partition, renumbered canonically
   (Part.assignment: by first occurrence in state order). *)
let refine ~nb_labels ~deterministic ~rev =
  let n = Csr.nb_rows rev in
  let splitters = Obs.counter "kern.splitters" in
  let splits = Obs.counter "kern.splits" in
  let qlen = Obs.series "kern.queue" in
  let p = Part.create n in
  (* worklist of splitter blocks, as a stack with membership flags *)
  let queue = Array.make n 0 in
  let qtop = ref 0 in
  let in_queue = Array.make n false in
  let enqueue b =
    if not in_queue.(b) then begin
      in_queue.(b) <- true;
      queue.(!qtop) <- b;
      incr qtop
    end
  in
  enqueue 0;
  (* scratch: predecessors of the popped block, then the same grouped
     per label by counting sort (labels occurring among them only) *)
  let pred_l = ref (Array.make 64 0) in
  let pred_s = ref (Array.make 64 0) in
  let by_label = ref (Array.make 64 0) in
  let label_cnt = Array.make (max nb_labels 1) 0 in
  let label_end = Array.make (max nb_labels 1) 0 in
  let present = Array.make (max nb_labels 1) 0 in
  let touched = Array.make n 0 in
  let ensure used len =
    if len > Array.length !pred_l then begin
      let cap = max len (2 * Array.length !pred_l) in
      let grow a =
        let b = Array.make cap 0 in
        Array.blit !a 0 b 0 used;
        a := b
      in
      grow pred_l;
      grow pred_s;
      by_label := Array.make cap 0
    end
  in
  while !qtop > 0 do
    decr qtop;
    let b = queue.(!qtop) in
    in_queue.(b) <- false;
    Obs.incr splitters;
    Obs.push qlen (float_of_int (!qtop + 1));
    (* gather the labelled predecessors of b's states *)
    let k = ref 0 in
    Part.iter_block p b (fun d ->
        let lo = Arr.get rev.Csr.row d and hi = Arr.get rev.Csr.row (d + 1) in
        ensure !k (!k + hi - lo);
        for i = lo to hi - 1 do
          !pred_l.(!k) <- Arr.get rev.Csr.lbl i;
          !pred_s.(!k) <- Arr.get rev.Csr.col i;
          incr k
        done);
    let k = !k in
    (* counting sort by label; [present] lists the labels seen *)
    let nb_present = ref 0 in
    for i = 0 to k - 1 do
      let l = !pred_l.(i) in
      if label_cnt.(l) = 0 then begin
        present.(!nb_present) <- l;
        incr nb_present
      end;
      label_cnt.(l) <- label_cnt.(l) + 1
    done;
    let off = ref 0 in
    for j = 0 to !nb_present - 1 do
      let l = present.(j) in
      off := !off + label_cnt.(l);
      label_end.(l) <- !off
    done;
    for i = k - 1 downto 0 do
      let l = !pred_l.(i) in
      let pos = label_end.(l) - 1 in
      label_end.(l) <- pos;
      !by_label.(pos) <- !pred_s.(i)
    done;
    (* after the fill, label_end.(l) is the start of l's segment *)
    for j = 0 to !nb_present - 1 do
      let l = present.(j) in
      let seg_start = label_end.(l) in
      let seg_end = seg_start + label_cnt.(l) in
      label_cnt.(l) <- 0;
      (* mark the predecessors under label l, then split every block
         that received a mark *)
      let nb_touched = ref 0 in
      for i = seg_start to seg_end - 1 do
        let s = !by_label.(i) in
        let bs = Part.block_of p s in
        if Part.size p bs > 1 then begin
          if Part.marked p bs = 0 then begin
            touched.(!nb_touched) <- bs;
            incr nb_touched
          end;
          Part.mark p s
        end
      done;
      for t = 0 to !nb_touched - 1 do
        let x = touched.(t) in
        match Part.split_marked p x with
        | -1 -> ()
        | c ->
          Obs.incr splits;
          if in_queue.(x) then enqueue c
          else begin
            let smaller, larger =
              if Part.size p c <= Part.size p x then (c, x) else (x, c)
            in
            if deterministic then enqueue smaller
            else begin
              (* both halves; push the larger first so the smaller is
                 popped first *)
              enqueue larger;
              enqueue smaller
            end
          end
      done
    done
  done;
  Part.assignment p

let partition ~nb_labels ~deterministic ~rev =
  Obs.span "kern.strong" @@ fun () -> refine ~nb_labels ~deterministic ~rev

let strong ~pool:_ ~nb_labels ~fwd ~rev =
  partition ~nb_labels ~deterministic:(Csr.deterministic fwd) ~rev
