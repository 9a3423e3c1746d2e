(* Tests for mv_bisim: strong and branching minimization, quotients,
   equivalence checking, and soundness properties on random LTSs. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Strong = Mv_bisim.Strong
module Branching = Mv_bisim.Branching
module Partition = Mv_bisim.Partition

let build transitions ~nb_states ~initial =
  let labels = Label.create () in
  let interned =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) transitions
  in
  Lts.make ~nb_states ~initial ~labels interned

let test_strong_collapses_duplicates () =
  (* two states with identical behaviour collapse *)
  let lts =
    build ~nb_states:3 ~initial:0
      [ (0, "a", 1); (0, "a", 2); (1, "b", 0); (2, "b", 0) ]
  in
  let minimized = Strong.minimize lts in
  Alcotest.(check int) "2 states" 2 (Lts.nb_states minimized);
  Alcotest.(check int) "2 transitions" 2 (Lts.nb_transitions minimized)

let test_strong_distinguishes () =
  (* same labels, different continuations: no collapse *)
  let lts =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (0, "a", 2); (1, "b", 3); (2, "c", 3) ]
  in
  let minimized = Strong.minimize lts in
  Alcotest.(check int) "no collapse" 4 (Lts.nb_states minimized)

let test_strong_keeps_tau () =
  (* strong bisimulation treats tau like any label *)
  let with_tau = build ~nb_states:2 ~initial:0 [ (0, "i", 1); (1, "a", 1) ] in
  let without = build ~nb_states:1 ~initial:0 [ (0, "a", 0) ] in
  Alcotest.(check bool) "tau distinguishes strongly" false
    (Strong.equivalent with_tau without)

let test_branching_removes_inert_tau () =
  (* a ; i ; b is branching-equivalent to a ; b *)
  let with_tau =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "i", 2); (2, "b", 0) ]
  in
  let without = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "b", 0) ] in
  Alcotest.(check bool) "branching equivalent" true
    (Branching.equivalent with_tau without);
  let minimized = Branching.minimize with_tau in
  Alcotest.(check int) "2 states" 2 (Lts.nb_states minimized)

let test_branching_preserves_choice () =
  (* i before a choice is NOT inert if it pre-empts the choice:
     a + i;b  vs  a + b are different modulo branching *)
  let preempting =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (0, "i", 2); (2, "b", 1) ]
  in
  let flat = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (0, "b", 1) ] in
  Alcotest.(check bool) "pre-empting tau matters" false
    (Branching.equivalent preempting flat)

let test_branching_tau_cycle () =
  (* tau cycles collapse (divergence-blind) *)
  let cycle =
    build ~nb_states:3 ~initial:0 [ (0, "i", 1); (1, "i", 0); (1, "a", 2) ]
  in
  let direct = build ~nb_states:2 ~initial:0 [ (0, "a", 1) ] in
  Alcotest.(check bool) "cycle collapses" true (Branching.equivalent cycle direct);
  Alcotest.(check bool) "divergence detected" false (Branching.divergence_free cycle);
  Alcotest.(check bool) "direct divergence free" true
    (Branching.divergence_free direct)

let test_equivalence_negative () =
  let a = build ~nb_states:2 ~initial:0 [ (0, "a", 1) ] in
  let b = build ~nb_states:2 ~initial:0 [ (0, "b", 1) ] in
  Alcotest.(check bool) "different labels" false (Strong.equivalent a b);
  Alcotest.(check bool) "branching too" false (Branching.equivalent a b)

let test_partition_api () =
  let p = Partition.trivial 4 in
  Alcotest.(check int) "one block" 1 p.Partition.count;
  let q = { Partition.block_of = [| 0; 1; 0; 1 |]; count = 2 } in
  Alcotest.(check bool) "same parity together" true (Partition.same_block q 0 2);
  Alcotest.(check bool) "different parity apart" false (Partition.same_block q 0 1)

(* ---- weak (observational) bisimulation ---- *)

let test_weak_absorbs_tau () =
  (* a;i;b is weakly equivalent to a;b *)
  let with_tau =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "i", 2); (2, "b", 0) ]
  in
  let without = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "b", 0) ] in
  Alcotest.(check bool) "weakly equivalent" true
    (Mv_bisim.Weak.equivalent with_tau without);
  Alcotest.(check int) "minimized" 2
    (Lts.nb_states (Mv_bisim.Weak.minimize with_tau))

let test_weak_coarser_than_branching () =
  (* the classical example separating weak from branching:
     a.(b + tau.c)  vs  a.(b + tau.c) + a.c
     These are weakly bisimilar but NOT branching bisimilar. *)
  let p =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (1, "b", 2); (1, "i", 3); (3, "c", 2) ]
  in
  let q =
    build ~nb_states:5 ~initial:0
      [ (0, "a", 1); (1, "b", 2); (1, "i", 3); (3, "c", 2); (0, "a", 4);
        (4, "c", 2) ]
  in
  Alcotest.(check bool) "weakly equivalent" true (Mv_bisim.Weak.equivalent p q);
  Alcotest.(check bool) "not branching equivalent" false
    (Branching.equivalent p q)

let test_weak_preserves_choice () =
  (* tau pre-empting a choice still matters weakly *)
  let preempting =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (0, "i", 2); (2, "b", 1) ]
  in
  let flat = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (0, "b", 1) ] in
  Alcotest.(check bool) "not weakly equivalent" false
    (Mv_bisim.Weak.equivalent preempting flat)

let test_divergence_sensitive () =
  (* a.(tau-loop) vs a.stop: blind branching equates them (modulo the
     deadlock...), the livelock-preserving variant must not equate
     tau-loop with progress *)
  let livelock =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "i", 1); (1, "b", 2) ]
  in
  let progress = build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "b", 2) ] in
  Alcotest.(check bool) "blind branching equates" true
    (Branching.equivalent livelock progress);
  Alcotest.(check bool) "divbranching distinguishes" false
    (Branching.equivalent ~divergence_sensitive:true livelock progress);
  (* two divergent systems are still equated *)
  let livelock2 =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (1, "i", 3); (3, "i", 1); (1, "b", 2) ]
  in
  Alcotest.(check bool) "same divergence equated" true
    (Branching.equivalent ~divergence_sensitive:true livelock livelock2);
  (* the divergence-sensitive quotient keeps a tau self-loop *)
  let minimized = Branching.minimize ~divergence_sensitive:true livelock in
  let has_tau_loop = ref false in
  Lts.iter_transitions minimized (fun s l d ->
      if l = Mv_lts.Label.tau && s = d then has_tau_loop := true);
  Alcotest.(check bool) "livelock preserved in quotient" true !has_tau_loop;
  (* divergence propagates backwards through tau chains *)
  let reaches_livelock =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (1, "i", 3); (3, "i", 3); (1, "b", 2) ]
  in
  Alcotest.(check bool) "tau-reaching-divergence distinguished" false
    (Branching.equivalent ~divergence_sensitive:true reaches_livelock progress)

(* Random LTS generator for soundness properties. *)
let lts_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 1 12 in
    let* transitions =
      list_size (int_bound 30)
        (triple (int_bound (nb_states - 1))
           (oneofl [ "a"; "b"; "c"; "i" ])
           (int_bound (nb_states - 1)))
    in
    return (build ~nb_states ~initial:0 transitions))

let strong_sound_prop =
  QCheck2.Test.make ~name:"strong minimize: equivalent and idempotent" ~count:60
    lts_gen
    (fun lts ->
       let minimized = Strong.minimize lts in
       Strong.equivalent lts minimized
       && Lts.nb_states (Strong.minimize minimized) = Lts.nb_states minimized)

let branching_sound_prop =
  QCheck2.Test.make ~name:"branching minimize: equivalent and idempotent"
    ~count:60 lts_gen
    (fun lts ->
       let minimized = Branching.minimize lts in
       Branching.equivalent lts minimized
       && Lts.nb_states (Branching.minimize minimized) = Lts.nb_states minimized)

let branching_coarser_prop =
  QCheck2.Test.make ~name:"branching quotient no larger than strong" ~count:60
    lts_gen
    (fun lts ->
       Lts.nb_states (Branching.minimize lts)
       <= Lts.nb_states (Strong.minimize lts))

let strong_implies_branching_prop =
  QCheck2.Test.make ~name:"strongly equivalent implies branching equivalent"
    ~count:40
    (QCheck2.Gen.pair lts_gen lts_gen)
    (fun (a, b) ->
       (not (Strong.equivalent a b)) || Branching.equivalent a b)

let divbranching_finer_prop =
  QCheck2.Test.make
    ~name:"divergence-sensitive equivalent implies branching equivalent"
    ~count:40
    (QCheck2.Gen.pair lts_gen lts_gen)
    (fun (a, b) ->
       (not (Branching.equivalent ~divergence_sensitive:true a b))
       || Branching.equivalent a b)

let divbranching_sound_prop =
  QCheck2.Test.make
    ~name:"divergence-sensitive minimize: equivalent and idempotent" ~count:40
    lts_gen
    (fun lts ->
       let minimized = Branching.minimize ~divergence_sensitive:true lts in
       Branching.equivalent ~divergence_sensitive:true lts minimized
       && Lts.nb_states (Branching.minimize ~divergence_sensitive:true minimized)
          = Lts.nb_states minimized)

let weak_sound_prop =
  QCheck2.Test.make ~name:"weak minimize: equivalent and idempotent" ~count:40
    lts_gen
    (fun lts ->
       let minimized = Mv_bisim.Weak.minimize lts in
       Mv_bisim.Weak.equivalent lts minimized
       && Lts.nb_states (Mv_bisim.Weak.minimize minimized)
          = Lts.nb_states minimized)

let branching_implies_weak_prop =
  QCheck2.Test.make ~name:"branching equivalent implies weakly equivalent"
    ~count:40
    (QCheck2.Gen.pair lts_gen lts_gen)
    (fun (a, b) ->
       (not (Branching.equivalent a b)) || Mv_bisim.Weak.equivalent a b)

let weak_implies_traces_prop =
  QCheck2.Test.make ~name:"weakly equivalent implies trace equivalent"
    ~count:30
    (QCheck2.Gen.pair lts_gen lts_gen)
    (fun (a, b) ->
       (not (Mv_bisim.Weak.equivalent a b)) || Mv_bisim.Traces.equivalent a b)

let suite =
  [
    Alcotest.test_case "strong collapses duplicates" `Quick
      test_strong_collapses_duplicates;
    Alcotest.test_case "strong distinguishes" `Quick test_strong_distinguishes;
    Alcotest.test_case "strong keeps tau" `Quick test_strong_keeps_tau;
    Alcotest.test_case "branching removes inert tau" `Quick
      test_branching_removes_inert_tau;
    Alcotest.test_case "branching preserves choice" `Quick
      test_branching_preserves_choice;
    Alcotest.test_case "branching collapses tau cycles" `Quick
      test_branching_tau_cycle;
    Alcotest.test_case "inequivalence detected" `Quick test_equivalence_negative;
    Alcotest.test_case "partition api" `Quick test_partition_api;
    QCheck_alcotest.to_alcotest strong_sound_prop;
    QCheck_alcotest.to_alcotest branching_sound_prop;
    QCheck_alcotest.to_alcotest branching_coarser_prop;
    QCheck_alcotest.to_alcotest strong_implies_branching_prop;
    Alcotest.test_case "weak absorbs tau" `Quick test_weak_absorbs_tau;
    Alcotest.test_case "weak coarser than branching" `Quick
      test_weak_coarser_than_branching;
    Alcotest.test_case "weak preserves choice" `Quick test_weak_preserves_choice;
    Alcotest.test_case "divergence-sensitive branching" `Quick
      test_divergence_sensitive;
    QCheck_alcotest.to_alcotest weak_sound_prop;
    QCheck_alcotest.to_alcotest divbranching_finer_prop;
    QCheck_alcotest.to_alcotest divbranching_sound_prop;
    QCheck_alcotest.to_alcotest branching_implies_weak_prop;
    QCheck_alcotest.to_alcotest weak_implies_traces_prop;
  ]
