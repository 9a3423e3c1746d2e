(* Differential tests of the state-space generator against the
   term-level interpreter it replaced (Term_oracle): the same .mvb
   bytes (state numbering, transition order, label table order), the
   same state terms, the same shortest deadlock trace and the same
   exceptions, on the case studies and on generated specifications. *)

module Ast = Mv_calc.Ast
module Semantics = Mv_calc.Semantics
module State_space = Mv_calc.State_space
module Mvb = Mv_store.Mvb

(* what a generation produced: the .mvb bytes and the state terms, or
   the exception it raised *)
let outcome generate =
  match generate () with
  | lts, terms -> Ok (Mvb.to_string lts, terms)
  | exception
      (( Semantics.Semantics_error _ | Semantics.Unguarded_recursion _
       | Mv_lts.Explore.Too_many_states _ ) as exn) ->
    Error (Printexc.to_string exn)

let generated ?max_states spec =
  outcome (fun () ->
      let o = State_space.generate ?max_states spec in
      (o.State_space.lts, o.State_space.terms))

let oracle ?max_states spec =
  outcome (fun () -> Term_oracle.generate ?max_states spec)

let describe = function
  | Ok (bytes, terms) ->
    Printf.sprintf "%d .mvb bytes, %d states" (String.length bytes)
      (Array.length terms)
  | Error msg -> msg

let same_outcome name expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" name (describe expected)
      (describe actual)

let first_deadlock spec =
  match State_space.first_deadlock spec with
  | trace -> Ok trace
  | exception exn -> Error (Printexc.to_string exn)

let oracle_first_deadlock spec =
  match Term_oracle.first_deadlock spec with
  | trace -> Ok trace
  | exception exn -> Error (Printexc.to_string exn)

(* ---- the case studies ---- *)

let chain_text k =
  let gates = Array.init (k + 1) (Printf.sprintf "g%d") in
  let buf i = Printf.sprintf "Buf[%s, %s](0)" gates.(i) gates.(i + 1) in
  let rec wire acc i =
    if i >= k then acc
    else wire (Printf.sprintf "(%s |[%s]| %s)" acc gates.(i) (buf i)) (i + 1)
  in
  Printf.sprintf
    {|process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init %s
|}
    (wire (buf 0) 1)

let case_studies () =
  let rates = Mv_fame.Benchmark.default_rates in
  let parse = Mv_calc.Parser.spec_of_string_checked in
  [
    ("examples/queue.mvl",
     parse (Test_lint.read_file (Test_lint.project_file "examples/queue.mvl")));
    ("6-buffer chain", parse (chain_text 6));
    ("fame distributed (correct)",
     Mv_fame.Distributed.spec Mv_fame.Distributed.Correct);
    ("fame distributed (dropped invalidation)",
     Mv_fame.Distributed.spec Mv_fame.Distributed.Dropped_invalidation);
    ("fame distributed (grant before ack)",
     Mv_fame.Distributed.spec Mv_fame.Distributed.Grant_before_ack);
    ("fame benchmark (bus)",
     Mv_fame.Benchmark.spec Mv_fame.Protocol.Msi Mv_fame.Topology.Bus
       Mv_fame.Mpi.Eager ~size:2 ~rates);
    ("fame numa",
     Mv_fame.Numa.spec ~nodes:3 Mv_fame.Topology.Ring Mv_fame.Numa.Token_ring
       ~rates);
    ("fame mpi program",
     Mv_fame.Mpi_program.spec
       ~programs:(Mv_fame.Mpi_program.pingpong ~partner:1 ~size:1)
       Mv_fame.Topology.Crossbar ~rates);
    ("faust router", Mv_faust.Router.closed_spec ~id:"r");
    ("faust mesh (shared buffer)",
     Mv_faust.Mesh.spec Mv_faust.Mesh.Shared_buffer
       ~flows:Mv_faust.Mesh.crossing_flows);
    ("faust mesh (port buffered)",
     Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered
       ~flows:Mv_faust.Mesh.crossing_flows);
    ("faust hop chain",
     Mv_faust.Noc.hop_chain_spec ~hops:3 ~inject:1.0 ~hop_rate:4.0
       ~cross:(Some 0.5));
    ("xstream tandem 40+40",
     Mv_xstream.Queues.tandem ~arrival:2.9 ~transfer:4.0 ~service:3.0
       ~capacity1:40 ~capacity2:40);
    ("xstream credit",
     Mv_xstream.Queues.credit ~arrival:2.0 ~service:3.0 ~capacity:4 ~credits:2);
    ("xstream spill",
     Mv_xstream.Queues.spill ~arrival:2.0 ~service:3.0 ~refill:1.0
       ~hw_capacity:2 ~spill_capacity:2);
    ("xstream fifo (data)", Mv_xstream.Queues.fifo_data ());
    ("xstream fifo (lossy)", Mv_xstream.Queues.fifo_lossy ());
    ("chp repeater",
     Mv_chp.Parser.spec_of_string ~prefix:"rep" "*[ a?x:int[0..1] ; b!x ]");
    ("chp arbiter",
     Mv_chp.Parser.spec_of_string ~prefix:"arb"
       "*[ [ true -> a?x:int[0..0] ; o!x | true -> b?y:int[0..0] ; o!y ] ] || *[ a!0 ]");
  ]

let test_case_studies () =
  List.iter
    (fun (name, spec) ->
       let expected = oracle spec in
       (match expected with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: oracle failed: %s" name msg);
       same_outcome name expected (generated spec);
       Alcotest.(check (result (option (list string)) string))
         (name ^ ": first deadlock")
         (oracle_first_deadlock spec) (first_deadlock spec))
    (case_studies ())

(* ---- fuel: Unguarded_recursion fires where 100 unfoldings run out ---- *)

let unguarded spec =
  match State_space.lts spec with
  | _ -> None
  | exception Semantics.Unguarded_recursion name -> Some name

let test_mutual_recursion () =
  let spec =
    Mv_calc.Parser.spec_of_string "process P := Q\nprocess Q := P\ninit P"
  in
  Alcotest.(check (option string)) "P := Q, Q := P" (Some "P") (unguarded spec);
  same_outcome "oracle agrees" (oracle spec) (generated spec)

(* [P(n)] unfolds [P(n + 1)] before any action until [n = k]: k + 1
   nested calls, within the fuel of 100 iff k < 100 *)
let descent k =
  Mv_calc.Parser.spec_of_string
    (Printf.sprintf
       "process P (n : int[0..%d]) := [n < %d] -> P(n + 1) [] [n == %d] -> a ; P(0)\ninit P(0)"
       k k k)

let test_unguarded_depth () =
  Alcotest.(check (option string)) "99 calls deep" None (unguarded (descent 98));
  Alcotest.(check (option string)) "100 calls deep" None (unguarded (descent 99));
  Alcotest.(check (option string)) "101 calls deep" (Some "P")
    (unguarded (descent 100));
  Alcotest.(check (option string)) "151 calls deep" (Some "P")
    (unguarded (descent 150));
  List.iter
    (fun k ->
       same_outcome (Printf.sprintf "oracle agrees at %d" k) (oracle (descent k))
         (generated (descent k)))
    [ 99; 100; 150 ]

(* a term first met with fuel to spare, then again nested deeper: the
   cached moves must not hide the exhausted fuel *)
let test_cached_moves_respect_fuel () =
  let spec = descent 60 in
  let table = Semantics.table spec in
  let term = Semantics.intern table (Ast.Call ("P", [], [ Ast.vint 30 ])) in
  Alcotest.(check int) "31 unfoldings fit in 40" 1
    (List.length (Semantics.successors ~fuel:40 table term));
  (match Semantics.successors ~fuel:30 table term with
   | _ -> Alcotest.fail "30 fuel for 31 unfoldings"
   | exception Semantics.Unguarded_recursion "P" -> ());
  Alcotest.(check int) "still there with fuel" 1
    (List.length (Semantics.successors ~fuel:31 table term))

(* ---- generated specifications ---- *)

let prop_oracle =
  QCheck2.Test.make ~name:"generate = term-level oracle (bytes, terms, errors)"
    ~count:500 ~print:Ast.spec_to_string Test_calc_laws.spec_gen
    (fun spec ->
       let max_states = 300 in
       let expected = oracle ~max_states spec in
       same_outcome "generate" expected (generated ~max_states spec);
       (match expected with
        | Ok _ ->
          if oracle_first_deadlock spec <> first_deadlock spec then
            Alcotest.fail "first deadlock differs"
        | Error _ -> ());
       true)

let suite =
  [
    Alcotest.test_case "case studies = term-level oracle" `Slow test_case_studies;
    Alcotest.test_case "mutual unguarded recursion" `Quick test_mutual_recursion;
    Alcotest.test_case "unguarded depth at the fuel bound" `Quick test_unguarded_depth;
    Alcotest.test_case "cached moves respect fuel" `Quick
      test_cached_moves_respect_fuel;
    QCheck_alcotest.to_alcotest prop_oracle;
  ]
