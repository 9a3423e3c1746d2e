(* Tests for mv_mcl: action formulas, mu-calculus evaluation against
   the Knaster-Tarski oracle, macros, the formula parser, and
   well-formedness checking. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Formula = Mv_mcl.Formula
module Action = Mv_mcl.Action_formula
module Eval = Mv_mcl.Eval
module Parser = Mv_mcl.Parser
module Bitset = Mv_util.Bitset

let build transitions ~nb_states ~initial =
  let labels = Label.create () in
  let interned =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) transitions
  in
  Lts.make ~nb_states ~initial ~labels interned

(* a small traffic-light-ish LTS:
   0 -go-> 1 -work !1-> 2 -done-> 0, plus 2 -i-> 3 (dead end) *)
let example =
  build ~nb_states:4 ~initial:0
    [ (0, "go", 1); (1, "work !1", 2); (2, "done", 0); (2, "i", 3) ]

let sat_list lts f = Bitset.to_list (Eval.sat lts f)

let test_action_formulas () =
  let labels = Lts.labels example in
  let work = Option.get (Label.find labels "work !1") in
  Alcotest.(check bool) "Any" true (Action.matches labels Action.Any work);
  Alcotest.(check bool) "None_" false (Action.matches labels Action.None_ work);
  Alcotest.(check bool) "Gate" true (Action.matches labels (Action.Gate "work") work);
  Alcotest.(check bool) "Name" true
    (Action.matches labels (Action.Name "work !1") work);
  Alcotest.(check bool) "Name mismatch" false
    (Action.matches labels (Action.Name "work") work);
  Alcotest.(check bool) "Tau" true (Action.matches labels Action.Tau Label.tau);
  Alcotest.(check bool) "Visible" false
    (Action.matches labels Action.Visible Label.tau);
  Alcotest.(check bool) "Not" false
    (Action.matches labels (Action.Not Action.Any) work);
  Alcotest.(check bool) "And" true
    (Action.matches labels (Action.And (Action.Gate "work", Action.Visible)) work);
  Alcotest.(check bool) "Or" true
    (Action.matches labels (Action.Or (Action.Tau, Action.Gate "work")) work)

let test_modalities () =
  Alcotest.(check (list int)) "<go> true" [ 0 ]
    (sat_list example (Formula.Diamond (Action.Gate "go", Formula.True)));
  (* [go] false holds exactly where no go-move exists *)
  Alcotest.(check (list int)) "[go] false" [ 1; 2; 3 ]
    (sat_list example (Formula.Box (Action.Gate "go", Formula.False)));
  Alcotest.(check (list int)) "<any> true" [ 0; 1; 2 ]
    (sat_list example (Formula.Diamond (Action.Any, Formula.True)))

let test_boolean_connectives () =
  let can_go = Formula.Diamond (Action.Gate "go", Formula.True) in
  let can_done = Formula.Diamond (Action.Gate "done", Formula.True) in
  Alcotest.(check (list int)) "or" [ 0; 2 ]
    (sat_list example (Formula.Or (can_go, can_done)));
  Alcotest.(check (list int)) "and" []
    (sat_list example (Formula.And (can_go, can_done)));
  Alcotest.(check (list int)) "not" [ 1; 2; 3 ]
    (sat_list example (Formula.Not can_go));
  Alcotest.(check (list int)) "implies" [ 1; 2; 3 ]
    (sat_list example (Formula.Implies (can_go, Formula.False)))

let test_fixpoints () =
  (* EF <done> true: all states that can reach a done-capable state *)
  let ef_done =
    Formula.Macro.possibly (Formula.Macro.can_do (Action.Gate "done"))
  in
  Alcotest.(check (list int)) "EF done" [ 0; 1; 2 ] (sat_list example ef_done);
  (* deadlock freedom fails here because of state 3 *)
  Alcotest.(check bool) "deadlock" false
    (Eval.holds example Formula.Macro.deadlock_free);
  let no_dead_end =
    build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "b", 0) ]
  in
  Alcotest.(check bool) "deadlock free" true
    (Eval.holds no_dead_end Formula.Macro.deadlock_free)

let test_inevitability () =
  (* on a -> b -> a cycle, b is inevitable from 0 *)
  let cycle = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "b", 0) ] in
  Alcotest.(check bool) "b inevitable" true
    (Eval.holds cycle (Formula.Macro.inevitably_action (Action.Gate "b")));
  (* add an escape loop avoiding b: no longer inevitable *)
  let escape =
    build ~nb_states:3 ~initial:0
      [ (0, "a", 1); (1, "b", 0); (0, "c", 2); (2, "c", 2) ]
  in
  Alcotest.(check bool) "not inevitable with escape" false
    (Eval.holds escape (Formula.Macro.inevitably_action (Action.Gate "b")))

let test_response_macro () =
  let cycle =
    build ~nb_states:3 ~initial:0 [ (0, "req", 1); (1, "i", 2); (2, "ack", 0) ]
  in
  Alcotest.(check bool) "req -> ack" true
    (Eval.holds cycle
       (Formula.Macro.response ~trigger:(Action.Gate "req")
          ~reaction:(Action.Gate "ack")));
  let broken =
    build ~nb_states:3 ~initial:0
      [ (0, "req", 1); (1, "i", 2); (2, "ack", 0); (1, "i", 1) ]
  in
  Alcotest.(check bool) "divergence breaks response" false
    (Eval.holds broken
       (Formula.Macro.response ~trigger:(Action.Gate "req")
          ~reaction:(Action.Gate "ack")))

let test_never_macro () =
  Alcotest.(check bool) "never error (no error action)" true
    (Eval.holds example (Formula.Macro.never (Action.Gate "error")));
  Alcotest.(check bool) "never go fails" false
    (Eval.holds example (Formula.Macro.never (Action.Gate "go")))

let test_check_rejects () =
  let open Formula in
  (* unbound variable *)
  (try
     check (Var "X");
     Alcotest.fail "expected Ill_formed"
   with Ill_formed _ -> ());
  (* negation of open formula *)
  (try
     check (Mu ("X", Not (Var "X")));
     Alcotest.fail "expected Ill_formed"
   with Ill_formed _ -> ());
  (* alternation: nu X . mu Y . ... X ... crossing signs *)
  try
    check (Nu ("X", Mu ("Y", Or (Var "X", Var "Y"))));
    Alcotest.fail "expected Ill_formed"
  with Ill_formed _ -> ()

let test_check_accepts_macros () =
  List.iter Formula.check
    [
      Formula.Macro.deadlock_free;
      Formula.Macro.always Formula.True;
      Formula.Macro.possibly Formula.False;
      Formula.Macro.inevitably Formula.True;
      Formula.Macro.never (Action.Gate "x");
      Formula.Macro.response ~trigger:Action.Any ~reaction:Action.Tau;
    ]

let test_parser () =
  let f = Parser.formula_of_string "nu X . <any> true and [any] X" in
  Alcotest.(check bool) "parsed deadlock_free equivalent" true
    (Eval.holds (build ~nb_states:1 ~initial:0 [ (0, "a", 0) ]) f);
  let g = Parser.formula_of_string "<\"work !1\"> true" in
  Alcotest.(check (list int)) "string label" [ 1 ] (sat_list example g);
  let h = Parser.formula_of_string "[go] false or <done> true" in
  Alcotest.(check (list int)) "mixed" [ 1; 2; 3 ] (sat_list example h);
  let k = Parser.formula_of_string "deadlock_free" in
  Alcotest.(check bool) "macro keyword" false (Eval.holds example k);
  let m = Parser.formula_of_string "mu X . (<done> true or <any> X)" in
  Alcotest.(check (list int)) "mu" [ 0; 1; 2 ] (sat_list example m)

let test_parser_actions () =
  let a = Parser.action_of_string "not (tau or done)" in
  let labels = Lts.labels example in
  Alcotest.(check bool) "not tau" false (Action.matches labels a Label.tau);
  Alcotest.(check bool) "matches go" true
    (Action.matches labels a (Option.get (Label.find labels "go")))

let test_parser_errors () =
  List.iter
    (fun text ->
       try
         ignore (Parser.formula_of_string text);
         Alcotest.fail ("expected parse error on " ^ text)
       with Parser.Parse_error _ -> ())
    [ "mu . X"; "<a true"; "true true"; "" ];
  try
    ignore (Parser.formula_of_string "mu X . not X");
    Alcotest.fail "expected Ill_formed"
  with Formula.Ill_formed _ -> ()

(* ---- regular modalities ---- *)

let test_regex_safety_idiom () =
  (* [true* . alpha] false == never alpha *)
  let with_error =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "error", 2); (2, "a", 2) ]
  in
  let without =
    build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "b", 0) ]
  in
  let safety = Parser.formula_of_string "[ true* . error ] false" in
  Alcotest.(check bool) "violation found" false (Eval.holds with_error safety);
  Alcotest.(check bool) "safe model passes" true (Eval.holds without safety);
  (* agreement with the macro on both models *)
  List.iter
    (fun lts ->
       Alcotest.(check bool) "matches Macro.never"
         (Eval.holds lts (Formula.Macro.never (Action.Gate "error")))
         (Eval.holds lts safety))
    [ with_error; without ]

let test_regex_sequence_and_union () =
  (* example LTS: 0 -go-> 1 -work !1-> 2 -done-> 0 and 2 -i-> 3 *)
  Alcotest.(check (list int)) "<go . work> true" [ 0 ]
    (sat_list example (Parser.formula_of_string "< go . work > true"));
  Alcotest.(check (list int)) "<go | done> true" [ 0; 2 ]
    (sat_list example (Parser.formula_of_string "< go | done > true"));
  (* sequence through a string atom *)
  Alcotest.(check (list int)) "string atom in regex" [ 1 ]
    (sat_list example (Parser.formula_of_string {|< "work !1" . done > true|}))

let test_regex_star () =
  (* <any*> phi is EF phi *)
  let ef =
    Parser.formula_of_string "< any* > (< done > true)"
  in
  Alcotest.(check (list int)) "EF via star" [ 0; 1; 2 ] (sat_list example ef);
  (* [a*] phi on a pure a-cycle requires phi everywhere on the cycle *)
  let cycle = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (1, "a", 0) ] in
  Alcotest.(check bool) "[a*]<a>true on cycle" true
    (Eval.holds cycle (Parser.formula_of_string "[ a* ] < a > true"));
  (* nested stars *)
  let nested = Parser.formula_of_string "< (go . (work | i)* . done)* > true" in
  Alcotest.(check bool) "nested stars evaluate" true (Eval.holds example nested)

let test_regex_combinators () =
  let open Formula.Regex in
  let r = Seq (Star (Act (Action.Gate "a")), Act (Action.Gate "b")) in
  let f = diamond r Formula.True in
  Formula.check f;
  let chain =
    build ~nb_states:3 ~initial:0 [ (0, "a", 1); (1, "a", 1); (1, "b", 2) ]
  in
  Alcotest.(check bool) "a*.b reachable" true (Eval.holds chain f);
  let g = box r Formula.False in
  Formula.check g;
  Alcotest.(check bool) "box version fails where path exists" false
    (Eval.holds chain g)

let test_witnesses () =
  let w =
    Eval.witnesses example ~limit:2
      (Formula.Diamond (Action.Any, Formula.True))
  in
  Alcotest.(check (list int)) "limited witnesses" [ 0; 1 ] w

let test_empty_modalities () =
  (* on a deadlocked state: box over anything is true, diamond false *)
  let dead = build ~nb_states:1 ~initial:0 [] in
  Alcotest.(check bool) "[any] false holds" true
    (Eval.holds dead (Formula.Box (Action.Any, Formula.False)));
  Alcotest.(check bool) "<any> true fails" false
    (Eval.holds dead (Formula.Diamond (Action.Any, Formula.True)))

let test_tau_modalities () =
  let lts = build ~nb_states:2 ~initial:0 [ (0, "i", 1) ] in
  Alcotest.(check bool) "<tau> true" true
    (Eval.holds lts (Formula.Diamond (Action.Tau, Formula.True)));
  Alcotest.(check bool) "<visible> true fails" false
    (Eval.holds lts (Formula.Diamond (Action.Visible, Formula.True)))

(* ---- the solver against the Knaster-Tarski oracle ---- *)

module Oracle = Mv_oracle.Eval

let same_as_oracle lts texts =
  List.iter
    (fun text ->
       let f = Parser.formula_of_string text in
       Alcotest.(check (list int))
         text
         (Bitset.to_list (Oracle.sat lts f))
         (sat_list lts f))
    texts

let test_oracle_example () =
  same_as_oracle example
    [
      "true"; "false"; "<go> true"; "[go] false"; "<any> true and [done] false";
      "not (<go> true)"; "<go> true => <any> true";
      "mu X . (<done> true or <any> X)";
      "nu X . <any> true and [any] X";
      "[ true* . \"work !1\" ] false";
      "< any* . done > true";
      "deadlock_free";
    ]

(* Binder shapes the macros never build: fixpoints with no occurrence
   or only a bare occurrence of their variable, same-sign nesting that
   uses both variables, shadowing, closed fixpoints of the other sign
   under a binder, and [not] / [=>] over closed fixpoints. *)
let test_oracle_binders () =
  same_as_oracle
    (build ~nb_states:6 ~initial:0
       [ (0, "a", 1); (1, "b", 2); (2, "a", 0); (2, "a", 3); (3, "i", 3);
         (4, "b", 5); (1, "a", 4) ])
    [
      "mu X . X"; "nu X . X"; "mu X . true"; "nu X . false";
      "mu X . mu Y . <a> X or <b> Y";
      "nu X . nu Y . [a] X and ([b] Y or <i> true)";
      "mu X . <a> X or mu X . <b> X";
      "nu X . [a] X and (mu Y . <b> true or <any> Y)";
      "mu X . <b> X or (nu Y . <i> Y)";
      "not (mu X . <b> true or <a> X)";
      "(nu X . <a> X) => mu Y . <b> true or <any> Y";
      "nu X . ((mu Y . <b> Y or <i> true) => [any] X)";
      "mu X . (not (nu Y . <a> Y)) and <any> X or <b> true";
    ]

(* Random alternation-free formulas. [vars] are the variables the
   generator may use at this point, with the sign of their binder:
   entering a binder keeps only those of its own sign (alternation
   freedom), and [not] arguments and [=>] left sides are closed. Names
   come from a pool of three, so binders shadow each other. *)
let formula_gen =
  let open QCheck2.Gen in
  let action = oneofl [ Action.Gate "a"; Action.Gate "b"; Action.Any; Action.Tau ] in
  let bind sign x vars =
    (x, sign) :: List.filter (fun (y, s) -> s = sign && y <> x) vars
  in
  let leaf vars =
    oneof
      ([ return Formula.True; return Formula.False;
         map (fun a -> Formula.Macro.can_do a) action;
         return Formula.Macro.deadlock_free;
         map (fun a -> Formula.Macro.never a) action;
         map (fun a -> Formula.Macro.inevitably_action a) action ]
       @
       if vars = [] then []
       else [ map (fun (x, _) -> Formula.Var x) (oneofl vars) ])
  in
  let rec build depth vars =
    if depth = 0 then leaf vars
    else
      let sub = build (depth - 1) in
      frequency
        [ (2, leaf vars);
          (2, map2 (fun a b -> Formula.And (a, b)) (sub vars) (sub vars));
          (2, map2 (fun a b -> Formula.Or (a, b)) (sub vars) (sub vars));
          (2, map2 (fun alpha f -> Formula.Diamond (alpha, f)) action (sub vars));
          (2, map2 (fun alpha f -> Formula.Box (alpha, f)) action (sub vars));
          ( 3,
            let* x = oneofl [ "X"; "Y"; "Z" ] in
            map (fun f -> Formula.Mu (x, f)) (sub (bind `Mu x vars)) );
          ( 3,
            let* x = oneofl [ "X"; "Y"; "Z" ] in
            map (fun f -> Formula.Nu (x, f)) (sub (bind `Nu x vars)) );
          (* same-sign nesting whose inner body uses both variables:
             mu X . mu Y . <a> X or [b] Y or phi, and its dual shape *)
          ( 2,
            let* mu = bool in
            let* a = action in
            let* b = action in
            let* da = bool in
            let* db = bool in
            let sign = if mu then `Mu else `Nu in
            map
              (fun f ->
                 let binder x body =
                   if mu then Formula.Mu (x, body) else Formula.Nu (x, body)
                 in
                 let modal diamond alpha x =
                   if diamond then Formula.Diamond (alpha, Formula.Var x)
                   else Formula.Box (alpha, Formula.Var x)
                 in
                 let join p q =
                   if mu then Formula.Or (p, q) else Formula.And (p, q)
                 in
                 binder "X"
                   (binder "Y"
                      (join (join (modal da a "X") (modal db b "Y")) f)))
              (sub (bind sign "Y" (bind sign "X" vars))) );
          (1, map (fun f -> Formula.Not f) (sub []));
          (1, map2 (fun a b -> Formula.Implies (a, b)) (sub []) (sub vars));
          ( 1,
            map
              (fun f -> Formula.Macro.possibly f)
              (sub (List.filter (fun (_, s) -> s = `Mu) vars)) );
          ( 1,
            map
              (fun f -> Formula.Macro.always f)
              (sub (List.filter (fun (_, s) -> s = `Nu) vars)) );
          ( 1,
            map2
              (fun alpha f ->
                 Formula.Regex.diamond
                   (Formula.Regex.Star (Formula.Regex.Act alpha))
                   f)
              action
              (sub (List.filter (fun (_, s) -> s = `Mu) vars)) ) ]
  in
  build 4 []

let lts_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 1 40 in
    let* transitions =
      list_size (int_bound 120)
        (triple (int_bound (nb_states - 1))
           (oneofl [ "a"; "b"; "i" ])
           (int_bound (nb_states - 1)))
    in
    return (build ~nb_states ~initial:0 transitions))

let print_case (lts, f) =
  let buffer = Buffer.create 256 in
  Lts.iter_transitions lts (fun s l d ->
      Buffer.add_string buffer
        (Printf.sprintf "(%d, %s, %d) " s (Label.name (Lts.labels lts) l) d));
  Format.asprintf "%d states: %s@.%a" (Lts.nb_states lts)
    (Buffer.contents buffer) Formula.pp f

let eval_matches_oracle_prop =
  QCheck2.Test.make ~name:"eval = Knaster-Tarski oracle" ~count:600
    ~print:print_case
    (QCheck2.Gen.pair lts_gen formula_gen)
    (fun (lts, f) -> Bitset.equal (Eval.sat lts f) (Oracle.sat lts f))

(* A 16,001-state ring (a-moves, closed by one b-move) entered from a
   10-state a-tail whose first state can also step into a dead end.
   Iterating the inner fixpoint of the first formula to stability under
   each outer iterate costs the oracle 6-8 s here; the propagation does
   a bounded amount of work per (subformula, state, transition). *)
let test_deep_ring () =
  let n = 16_001 in
  let tail = n and dead = n + 10 in
  let transitions =
    List.init n (fun i -> if i < n - 1 then (i, "a", i + 1) else (i, "b", 0))
    @ List.init 10 (fun j ->
        (tail + j, "a", if j < 9 then tail + j + 1 else 0))
    @ [ (tail, "c", dead) ]
  in
  let lts = build ~nb_states:(n + 11) ~initial:tail transitions in
  let size_plus_edges = Lts.nb_states lts + Lts.nb_transitions lts in
  let rec size = function
    | Formula.True | Formula.False | Formula.Var _ -> 1
    | Formula.Not f | Formula.Diamond (_, f) | Formula.Box (_, f)
    | Formula.Mu (_, f) | Formula.Nu (_, f) ->
      1 + size f
    | Formula.And (a, b) | Formula.Or (a, b) | Formula.Implies (a, b) ->
      1 + size a + size b
  in
  let all_but excluded =
    List.filter
      (fun s -> not (List.mem s excluded))
      (List.init (Lts.nb_states lts) Fun.id)
  in
  Mv_obs.Obs.enable ();
  let propagations () =
    Mv_obs.Obs.(counter_value (counter "mcl.propagations"))
  in
  List.iter
    (fun (text, expected) ->
       let f = Parser.formula_of_string text in
       let before = propagations () in
       Alcotest.(check (list int)) text expected (sat_list lts f);
       let work = propagations () - before in
       let bound = 2 * size f * size_plus_edges in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d propagations <= %d" text work bound)
         true
         (work > 0 && work <= bound))
    [
      ("[true*] <true* . b> true", all_but [ tail; dead ]);
      ("mu X . <b> true or <a> X", all_but [ dead ]);
    ]

let suite =
  [
    Alcotest.test_case "action formulas" `Quick test_action_formulas;
    Alcotest.test_case "modalities" `Quick test_modalities;
    Alcotest.test_case "boolean connectives" `Quick test_boolean_connectives;
    Alcotest.test_case "fixpoints" `Quick test_fixpoints;
    Alcotest.test_case "inevitability" `Quick test_inevitability;
    Alcotest.test_case "response macro" `Quick test_response_macro;
    Alcotest.test_case "never macro" `Quick test_never_macro;
    Alcotest.test_case "check rejects ill-formed" `Quick test_check_rejects;
    Alcotest.test_case "check accepts macros" `Quick test_check_accepts_macros;
    Alcotest.test_case "formula parser" `Quick test_parser;
    Alcotest.test_case "action parser" `Quick test_parser_actions;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "witnesses" `Quick test_witnesses;
    Alcotest.test_case "regex: safety idiom" `Quick test_regex_safety_idiom;
    Alcotest.test_case "regex: sequence and union" `Quick
      test_regex_sequence_and_union;
    Alcotest.test_case "regex: star" `Quick test_regex_star;
    Alcotest.test_case "regex: combinators" `Quick test_regex_combinators;
    Alcotest.test_case "empty modalities" `Quick test_empty_modalities;
    Alcotest.test_case "tau modalities" `Quick test_tau_modalities;
    Alcotest.test_case "eval = oracle: example formulas" `Quick
      test_oracle_example;
    Alcotest.test_case "eval = oracle: binder shapes" `Quick
      test_oracle_binders;
    QCheck_alcotest.to_alcotest eval_matches_oracle_prop;
    Alcotest.test_case "deep ring: linear work" `Quick test_deep_ring;
  ]
