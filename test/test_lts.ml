(* Tests for mv_lts: Lts construction, label tables, hiding/renaming,
   reachability, Aut round trips, SCC, and the generic explorer. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Aut = Mv_lts.Aut
module Scc = Mv_lts.Scc
module Bitset = Mv_util.Bitset

let build transitions ~nb_states ~initial =
  let labels = Label.create () in
  let interned =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) transitions
  in
  Lts.make ~nb_states ~initial ~labels interned

let test_label_table () =
  let t = Label.create () in
  Alcotest.(check int) "tau is 0" Label.tau (Label.intern t "i");
  Alcotest.(check int) "tau alias" Label.tau (Label.intern t "tau");
  let a = Label.intern t "a" in
  Alcotest.(check int) "idempotent" a (Label.intern t "a");
  Alcotest.(check string) "name" "a" (Label.name t a);
  Alcotest.(check (option int)) "find" (Some a) (Label.find t "a");
  Alcotest.(check (option int)) "find missing" None (Label.find t "zz");
  let copy = Label.copy t in
  ignore (Label.intern copy "b");
  Alcotest.(check (option int)) "copy independent" None (Label.find t "b")

let test_label_gate () =
  Alcotest.(check string) "gate of plain" "PUSH" (Label.gate "PUSH");
  Alcotest.(check string) "gate of offer" "PUSH" (Label.gate "PUSH !3 !true")

let test_make_dedup () =
  let lts =
    build ~nb_states:2 ~initial:0 [ (0, "a", 1); (0, "a", 1); (1, "b", 0) ]
  in
  Alcotest.(check int) "dedup" 2 (Lts.nb_transitions lts);
  Alcotest.(check bool) "has" true
    (Lts.has_transition lts 0 (Option.get (Label.find (Lts.labels lts) "a")) 1);
  Alcotest.(check bool) "hasn't" false
    (Lts.has_transition lts 1 (Option.get (Label.find (Lts.labels lts) "a")) 1)

let test_make_invalid () =
  Alcotest.check_raises "bad initial" (Invalid_argument "Lts.make: initial")
    (fun () -> ignore (build ~nb_states:1 ~initial:1 []))

let test_out_iteration () =
  let lts =
    build ~nb_states:3 ~initial:0
      [ (0, "a", 1); (0, "b", 2); (1, "a", 2); (2, "c", 0) ]
  in
  Alcotest.(check int) "out_degree 0" 2 (Lts.out_degree lts 0);
  let count = ref 0 in
  Lts.iter_out lts 0 (fun _ _ -> incr count);
  Alcotest.(check int) "iter_out" 2 !count;
  let sum = Lts.fold_out lts 0 (fun _ d acc -> acc + d) 0 in
  Alcotest.(check int) "fold_out targets" 3 sum

let test_deadlocks () =
  let lts = build ~nb_states:3 ~initial:0 [ (0, "a", 1) ] in
  Alcotest.(check (list int)) "deadlocks" [ 1; 2 ] (Lts.deadlocks lts)

let test_reachable_restrict () =
  let lts =
    build ~nb_states:4 ~initial:0 [ (0, "a", 1); (1, "b", 0); (2, "c", 3) ]
  in
  let reach = Lts.reachable lts in
  Alcotest.(check (list int)) "reachable" [ 0; 1 ] (Bitset.to_list reach);
  let restricted = Lts.restrict_reachable lts in
  Alcotest.(check int) "restricted states" 2 (Lts.nb_states restricted);
  Alcotest.(check int) "restricted transitions" 2 (Lts.nb_transitions restricted);
  Alcotest.(check int) "initial renumbered to 0" 0 (Lts.initial restricted)

let test_hide_rename () =
  let lts =
    build ~nb_states:2 ~initial:0
      [ (0, "PUSH !1", 1); (1, "POP !1", 0); (1, "i", 1) ]
  in
  let hidden = Lts.hide lts ~gates:[ "PUSH" ] in
  Alcotest.(check (list string)) "hide" [ "POP !1"; "i" ]
    (Lts.occurring_labels hidden);
  let kept = Lts.hide_all_except lts ~gates:[ "POP" ] in
  Alcotest.(check (list string)) "hide_all_except" [ "POP !1"; "i" ]
    (Lts.occurring_labels kept);
  let renamed =
    Lts.rename lts (fun name ->
        if Label.gate name = "PUSH" then Some "IN !1" else None)
  in
  Alcotest.(check (list string)) "rename" [ "IN !1"; "POP !1"; "i" ]
    (Lts.occurring_labels renamed)

let test_aut_round_trip () =
  let lts =
    build ~nb_states:3 ~initial:1
      [ (0, "a b \"quoted\"", 1); (1, "i", 2); (2, "plain", 0) ]
  in
  let text = Aut.to_string lts in
  let back = Aut.of_string text in
  Alcotest.(check int) "states" (Lts.nb_states lts) (Lts.nb_states back);
  Alcotest.(check int) "transitions" (Lts.nb_transitions lts)
    (Lts.nb_transitions back);
  Alcotest.(check int) "initial" (Lts.initial lts) (Lts.initial back);
  Alcotest.(check (list string)) "labels" (Lts.occurring_labels lts)
    (Lts.occurring_labels back)

let test_aut_bare_labels () =
  let lts = Aut.of_string "des (0, 2, 2)\n(0, hello, 1)\n(1, i, 0)\n" in
  Alcotest.(check (list string)) "bare labels" [ "hello"; "i" ]
    (Lts.occurring_labels lts)

let test_aut_errors () =
  (try
     ignore (Aut.of_string "not an aut file");
     Alcotest.fail "expected parse error"
   with Aut.Parse_error _ -> ());
  try
    ignore (Aut.of_string "des (0, 1, 1)\n(0, \"unterminated, 0)");
    Alcotest.fail "expected parse error"
  with Aut.Parse_error _ -> ()

(* Property: .aut round trip preserves everything, on random LTSs. *)
let aut_round_trip_prop =
  let gen =
    QCheck2.Gen.(
      let* nb_states = int_range 1 15 in
      let* transitions =
        list_size (int_bound 40)
          (triple (int_bound (nb_states - 1))
             (oneofl [ "a"; "b"; "i"; "G !1"; "odd \"label\"" ])
             (int_bound (nb_states - 1)))
      in
      return (nb_states, transitions))
  in
  QCheck2.Test.make ~name:"aut round trip" ~count:100 gen
    (fun (nb_states, transitions) ->
       let lts = build ~nb_states ~initial:0 transitions in
       let back = Aut.of_string (Aut.to_string lts) in
       Lts.nb_states back = Lts.nb_states lts
       && Lts.nb_transitions back = Lts.nb_transitions lts
       && Lts.occurring_labels back = Lts.occurring_labels lts)

let test_make_array_and_relabel () =
  let labels = Label.create () in
  let a = Label.intern labels "a" in
  let lts =
    Lts.make_array ~nb_states:2 ~initial:0 ~labels [| (0, a, 1); (0, a, 1) |]
  in
  Alcotest.(check int) "deduped" 1 (Lts.nb_transitions lts);
  let relabeled = Lts.relabel lts (fun s _ d -> (d, "flip", s)) in
  Alcotest.(check bool) "reversed edge" true
    (Lts.has_transition relabeled 1
       (Option.get (Label.find (Lts.labels relabeled) "flip"))
       0)

(* rows longer and shorter than the insertion-sort cutoff, with
   duplicates, in arbitrary order: the arrays are those of a plain
   sort-and-dedup of the triples *)
let make_array_prop =
  let gen =
    QCheck2.Gen.(
      int_range 1 6 >>= fun nb_states ->
      list_size (int_bound 120)
        (triple (int_bound (nb_states - 1)) (int_bound 3) (int_bound (nb_states - 1)))
      >|= fun triples -> (nb_states, triples))
  in
  QCheck2.Test.make ~name:"make_array = sort + dedup" ~count:200 gen
    (fun (nb_states, triples) ->
       let labels = Label.create () in
       List.iter (fun l -> ignore (Label.intern labels l)) [ "a"; "b"; "c" ];
       let input = Array.of_list triples in
       let lts = Lts.make_array ~nb_states ~initial:0 ~labels input in
       let actual = ref [] in
       Lts.iter_transitions lts (fun s l d -> actual := (s, l, d) :: !actual);
       input = Array.of_list triples
       && List.rev !actual = List.sort_uniq compare triples
       && List.for_all
            (fun s ->
               Lts.out_degree lts s
               = List.length (List.filter (fun (s', _, _) -> s' = s)
                                (List.sort_uniq compare triples)))
            (List.init nb_states Fun.id))

let test_label_table_growth () =
  (* exceed the initial capacity of the interning table *)
  let t = Label.create () in
  let ids = List.init 100 (fun i -> Label.intern t (Printf.sprintf "g%d" i)) in
  Alcotest.(check int) "all distinct" 100
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "count includes tau" 101 (Label.count t);
  Alcotest.(check string) "lookup survives growth" "g73" (Label.name t (List.nth ids 73))

let test_pp_smoke () =
  let lts = build ~nb_states:1 ~initial:0 [ (0, "a", 0) ] in
  let text = Format.asprintf "%a" Lts.pp lts in
  Alcotest.(check bool) "mentions counts" true
    (Astring.String.is_infix ~affix:"1 states" text)

let test_scc_basic () =
  (* 0 <-> 1, 2 alone, 1 -> 2 *)
  let succ = [| [ 1 ]; [ 0; 2 ]; [] |] in
  let result =
    Scc.compute ~nb_states:3 ~iter_succ:(fun s f -> List.iter f succ.(s))
  in
  Alcotest.(check int) "count" 2 result.Scc.count;
  Alcotest.(check bool) "0 and 1 together" true
    (result.Scc.component.(0) = result.Scc.component.(1));
  Alcotest.(check bool) "2 separate" true
    (result.Scc.component.(2) <> result.Scc.component.(0));
  (* reverse topological numbering: edge 1->2 crosses components *)
  Alcotest.(check bool) "reverse topological" true
    (result.Scc.component.(1) > result.Scc.component.(2));
  let bottom =
    Scc.bottom ~nb_states:3 ~iter_succ:(fun s f -> List.iter f succ.(s)) result
  in
  Alcotest.(check bool) "2 is bottom" true bottom.(result.Scc.component.(2));
  Alcotest.(check bool) "0/1 not bottom" false bottom.(result.Scc.component.(0))

let test_scc_big_cycle () =
  (* one large cycle, iterative Tarjan must not overflow *)
  let n = 50_000 in
  let result =
    Scc.compute ~nb_states:n ~iter_succ:(fun s f -> f ((s + 1) mod n))
  in
  Alcotest.(check int) "single component" 1 result.Scc.count

let test_explorer_truncation () =
  let module E = Mv_lts.Explore.Make (struct
      type t = int

      let equal = Int.equal
      let hash = Hashtbl.hash
    end) in
  let successors n = [ ("next", n + 1) ] in
  let out = E.run ~max_states:10 ~initial:0 ~successors () in
  Alcotest.(check bool) "truncated" true out.Mv_lts.Explore.truncated;
  Alcotest.(check int) "bounded" 10 (Lts.nb_states out.Mv_lts.Explore.lts);
  try
    ignore (E.run ~max_states:10 ~on_truncate:`Raise ~initial:0 ~successors ());
    Alcotest.fail "expected Too_many_states"
  with Mv_lts.Explore.Too_many_states n -> Alcotest.(check int) "bound" 10 n

(* ------------------------------------------------------------------ *)
(* Out-of-core exploration                                             *)

module Int_explore = Mv_lts.Explore.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

(* a graph with sharing and cycles: every state is reached several
   times, so the seen set (and its cold, spilled part) is actually
   exercised *)
let braid_successors n s =
  [ ("a", (2 * s + 1) mod n); ("b", (3 * s + 2) mod n); ("c", s / 2) ]

let in_scratch f =
  let dir = Filename.temp_file "mv_ooc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Replay [run_ooc]'s emitted stream into an [Lts.t] and require it to
   be identical (text form) to what [run] materializes. *)
let check_ooc_matches_run ?hot_budget_bytes ?max_states ~n () =
  in_scratch (fun dir ->
      let successors = braid_successors n in
      let reference =
        Int_explore.run ?max_states ~initial:0 ~successors ()
      in
      let labels = Label.create () in
      let transitions = ref [] in
      let next_id = ref 0 in
      let emit moves =
        let src = !next_id in
        incr next_id;
        Array.iter (fun (l, d) -> transitions := (src, l, d) :: !transitions) moves
      in
      let outcome =
        Int_explore.run_ooc ?hot_budget_bytes ?max_states ~scratch_dir:dir
          ~labels ~emit ~initial:0 ~successors ()
      in
      let streamed =
        Lts.make_array ~nb_states:outcome.Mv_lts.Explore.ooc_states ~initial:0
          ~labels
          (Array.of_list (List.rev !transitions))
      in
      Alcotest.(check string) "identical stream"
        (Aut.to_string reference.Mv_lts.Explore.lts)
        (Aut.to_string streamed);
      Alcotest.(check int) "transition count"
        (Lts.nb_transitions reference.Mv_lts.Explore.lts)
        outcome.Mv_lts.Explore.ooc_transitions;
      Alcotest.(check bool) "truncation agrees"
        reference.Mv_lts.Explore.truncated outcome.Mv_lts.Explore.ooc_truncated;
      Alcotest.(check (array string)) "no scratch left behind" [||]
        (Sys.readdir dir))

let test_explore_ooc_matches_run () = check_ooc_matches_run ~n:2000 ()

let test_explore_ooc_forced_spill () =
  (* a hot budget far below 2000 entries forces spilling to sorted
     runs (and run merging) on every level; results must not change *)
  check_ooc_matches_run ~hot_budget_bytes:1024 ~n:2000 ()

let test_explore_ooc_truncation () =
  (* `Stop at the bound must cut the stream at exactly the same states
     and transitions as the in-RAM search *)
  check_ooc_matches_run ~hot_budget_bytes:1024 ~max_states:700 ~n:5000 ()

let suite =
  [
    Alcotest.test_case "label table" `Quick test_label_table;
    Alcotest.test_case "label gate" `Quick test_label_gate;
    Alcotest.test_case "make dedups" `Quick test_make_dedup;
    Alcotest.test_case "make validates" `Quick test_make_invalid;
    Alcotest.test_case "out iteration" `Quick test_out_iteration;
    Alcotest.test_case "deadlocks" `Quick test_deadlocks;
    Alcotest.test_case "reachable/restrict" `Quick test_reachable_restrict;
    Alcotest.test_case "hide/rename" `Quick test_hide_rename;
    Alcotest.test_case "aut round trip" `Quick test_aut_round_trip;
    Alcotest.test_case "aut bare labels" `Quick test_aut_bare_labels;
    Alcotest.test_case "aut errors" `Quick test_aut_errors;
    QCheck_alcotest.to_alcotest aut_round_trip_prop;
    QCheck_alcotest.to_alcotest make_array_prop;
    Alcotest.test_case "make_array/relabel" `Quick test_make_array_and_relabel;
    Alcotest.test_case "label table growth" `Quick test_label_table_growth;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "scc basics" `Quick test_scc_basic;
    Alcotest.test_case "scc large cycle (iterative)" `Quick test_scc_big_cycle;
    Alcotest.test_case "explorer truncation" `Quick test_explorer_truncation;
    Alcotest.test_case "ooc explorer matches run" `Quick
      test_explore_ooc_matches_run;
    Alcotest.test_case "ooc explorer forced spill" `Quick
      test_explore_ooc_forced_spill;
    Alcotest.test_case "ooc explorer truncation" `Quick
      test_explore_ooc_truncation;
  ]
