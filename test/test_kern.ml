(* Tests for mv_kern: CSR adjacency, the refinable partition, signature
   sort/dedup, the solver kernels, and — the contract everything else
   rests on — agreement of the flat refinement engines with the legacy
   signature engines, block ids included (for branching, at every pool
   size). *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Csr = Mv_kern.Csr
module Arr = Mv_kern.Arr
module Part = Mv_kern.Part
module Sig_table = Mv_kern.Sig_table
module Solver = Mv_kern.Solver
module Strong = Mv_bisim.Strong
module Branching = Mv_bisim.Branching
module Partition = Mv_bisim.Partition
module Imc = Mv_imc.Imc
module Lump = Mv_imc.Lump
module Ctmc = Mv_markov.Ctmc

let build transitions ~nb_states ~initial =
  let labels = Label.create () in
  let interned =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) transitions
  in
  Lts.make ~nb_states ~initial ~labels interned

(* ---- CSR ---- *)

let test_csr_forward_matches_iter_out () =
  let lts =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (0, "b", 2); (1, "a", 3); (3, "a", 0); (3, "a", 3) ]
  in
  let fwd = Csr.forward lts in
  Alcotest.(check int) "rows" 4 (Csr.nb_rows fwd);
  Alcotest.(check int) "entries" 5 (Csr.nb_entries fwd);
  for s = 0 to 3 do
    let from_lts = ref [] in
    Lts.iter_out lts s (fun l d -> from_lts := (l, d) :: !from_lts);
    let from_csr = ref [] in
    for i = Arr.get fwd.Csr.row (s + 1) - 1 downto Arr.get fwd.Csr.row s do
      from_csr := (Arr.get fwd.Csr.lbl i, Arr.get fwd.Csr.col i) :: !from_csr
    done;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "row %d" s)
      (List.rev !from_lts) !from_csr
  done

let test_csr_reverse_matches_iter_in () =
  let lts =
    build ~nb_states:4 ~initial:0
      [ (0, "a", 1); (0, "b", 2); (1, "a", 3); (3, "a", 0); (3, "a", 3) ]
  in
  let rev = Csr.reverse lts in
  Alcotest.(check int) "entries" 5 (Csr.nb_entries rev);
  (* incoming (label, src) lists, newest first, in transition order *)
  let incoming = Array.make 4 [] in
  Lts.iter_transitions lts (fun src l d ->
      incoming.(d) <- (l, src) :: incoming.(d));
  for s = 0 to 3 do
    let from_csr = ref [] in
    for i = Arr.get rev.Csr.row (s + 1) - 1 downto Arr.get rev.Csr.row s do
      from_csr := (Arr.get rev.Csr.lbl i, Arr.get rev.Csr.col i) :: !from_csr
    done;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "row %d" s)
      (List.rev incoming.(s)) !from_csr
  done

let test_csr_deterministic () =
  let det = build ~nb_states:2 ~initial:0 [ (0, "a", 1); (0, "b", 1) ] in
  let nondet = build ~nb_states:3 ~initial:0 [ (0, "a", 1); (0, "a", 2) ] in
  Alcotest.(check bool) "deterministic" true (Csr.deterministic (Csr.forward det));
  Alcotest.(check bool) "nondeterministic" false
    (Csr.deterministic (Csr.forward nondet))

(* ---- refinable partition ---- *)

let test_part_mark_split () =
  let p = Part.create 5 in
  Alcotest.(check int) "one block" 1 (Part.count p);
  Alcotest.(check int) "size" 5 (Part.size p 0);
  Part.mark p 1;
  Part.mark p 3;
  Part.mark p 1;
  (* idempotent *)
  Alcotest.(check int) "marked" 2 (Part.marked p 0);
  let c = Part.split_marked p 0 in
  Alcotest.(check bool) "fresh block" true (c >= 0);
  Alcotest.(check int) "two blocks" 2 (Part.count p);
  Alcotest.(check int) "split sizes" 5 (Part.size p 0 + Part.size p c);
  Alcotest.(check bool) "1 and 3 together" true
    (Part.block_of p 1 = Part.block_of p 3);
  Alcotest.(check bool) "0 and 1 apart" false
    (Part.block_of p 0 = Part.block_of p 1);
  (* marking every state of a block must NOT split it *)
  let b = Part.block_of p 0 in
  Part.iter_block p b (fun s -> Part.mark p s);
  Alcotest.(check int) "all-marked split refused" (-1) (Part.split_marked p b);
  Alcotest.(check int) "still two blocks" 2 (Part.count p);
  Alcotest.(check int) "marks cleared" 0 (Part.marked p b)

let test_part_assignment_canonical () =
  let p = Part.create 4 in
  (* split {2,3} away, then {1} away: blocks by first occurrence must
     come out 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 2 whatever internal ids the
     splits produced *)
  Part.mark p 2;
  Part.mark p 3;
  ignore (Part.split_marked p 0);
  Part.mark p 1;
  ignore (Part.split_marked p 0);
  let block_of, count = Part.assignment p in
  Alcotest.(check int) "three blocks" 3 count;
  Alcotest.(check (array int)) "canonical ids" [| 0; 1; 2; 2 |] block_of

(* ---- sort_dedup ---- *)

let test_sort_dedup () =
  let a = [| 5; 1; 5; 3; 1; 1; 9; 3 |] in
  let len = Sig_table.sort_dedup a (Array.length a) in
  Alcotest.(check int) "length" 4 len;
  Alcotest.(check (array int)) "prefix" [| 1; 3; 5; 9 |] (Array.sub a 0 len);
  (* prefix lengths and duplicate-only arrays *)
  let b = [| 7; 7; 7; 0 |] in
  let len = Sig_table.sort_dedup b 3 in
  Alcotest.(check int) "all equal" 1 len;
  Alcotest.(check int) "kept" 7 b.(0);
  Alcotest.(check int) "empty" 0 (Sig_table.sort_dedup [||] 0)

let sort_dedup_prop =
  QCheck2.Test.make ~name:"sort_dedup agrees with List.sort_uniq" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (int_range (-50) 50))
    (fun l ->
       let a = Array.of_list l in
       let len = Sig_table.sort_dedup a (Array.length a) in
       Array.to_list (Array.sub a 0 len) = List.sort_uniq compare l)

(* ---- flat engines vs the legacy engines (Mv_oracle) ---- *)

let lts_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 1 14 in
    let* transitions =
      list_size (int_bound 40)
        (triple (int_bound (nb_states - 1))
           (oneofl [ "a"; "b"; "c"; "i" ])
           (int_bound (nb_states - 1)))
    in
    return (build ~nb_states ~initial:0 transitions))

let same_partition (p : Partition.t) (q : Partition.t) =
  p.Partition.count = q.Partition.count
  && p.Partition.block_of = q.Partition.block_of

(* The engines must agree block id for block id (not just up to
   renaming): quotients are then byte-identical and Mv_store cache
   keys stay valid. Strong refinement is sequential; the pool never
   changes branching results, so its flat partition at -j1 and -j4 is
   checked against the sequential oracle. *)
let strong_matches_legacy_prop =
  QCheck2.Test.make ~name:"strong: flat engine = legacy engine (-j1)"
    ~count:120 lts_gen
    (fun lts ->
       same_partition (Strong.partition lts) (Mv_oracle.Strong.partition lts))

let branching_matches_legacy_prop =
  QCheck2.Test.make ~name:"branching: flat engine = legacy engine (-j1, -j4)"
    ~count:120 lts_gen
    (fun lts ->
       let oracle = Mv_oracle.Branching.partition lts in
       same_partition (Branching.partition lts) oracle
       && Mv_par.Pool.scope ~domains:4 (fun pool ->
           same_partition (Branching.partition ~pool lts) oracle))

let divbranching_matches_legacy_prop =
  QCheck2.Test.make ~name:"divbranching: flat engine = legacy engine" ~count:120
    lts_gen
    (fun lts ->
       same_partition
         (Branching.partition ~divergence_sensitive:true lts)
         (Mv_oracle.Branching.partition ~divergence_sensitive:true lts))

let imc_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 2 10 in
    let* markovian =
      list_size (int_range 1 16)
        (triple (int_bound (nb_states - 1))
           (float_range 0.5 4.0)
           (int_bound (nb_states - 1)))
    in
    let* interactive_raw =
      list_size (int_bound 6)
        (triple (int_bound (nb_states - 1))
           (oneofl [ "a"; "b"; "i" ])
           (int_bound (nb_states - 1)))
    in
    let labels = Label.create () in
    let interactive =
      List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) interactive_raw
    in
    return (Imc.make ~nb_states ~initial:0 ~labels ~interactive ~markovian))

let lump_matches_legacy_prop =
  QCheck2.Test.make ~name:"lump: flat engine = legacy engine" ~count:120 imc_gen
    (fun imc ->
       same_partition (Lump.partition imc) (Mv_oracle.Lump.partition imc))

(* IMCs on a chain or ladder backbone of up to 300 states. The moves
   repeat with a short period along the backbone, which may loop back
   by whole periods, and are the same on both rails of a ladder, so
   most cases merge states; refinement runs for many rounds, and the
   incremental lumping engine meets blocks that hold both states it
   recomputes and states it skips. A Markovian move is 1-3 parallel
   transitions with rates from a small set, summed in reverse order on
   the second rail, so whether two states merge hinges on rounding
   away float association: (0.1 + 0.2) + 0.7 is 1.0 but (0.7 + 0.2) +
   0.1 is not, and 0.1 + 0.2 is not 0.3. Skips between backbone
   positions are added on every rail; a little noise on one rail then
   breaks the symmetry. *)
let lump_rates = [ 0.1; 0.2; 0.3; 1.0 /. 3.0; 0.7; 1.5; 2.0 ]

let backbone_imc_gen =
  QCheck2.Gen.(
    let move =
      frequency
        [
          (4, map Either.left (list_size (int_range 1 3) (oneofl lump_rates)));
          (1, map Either.right (oneofl [ "a"; "b"; "i" ]));
        ]
    in
    let* rails = int_range 1 2 in
    let* length = int_range (3 - rails) (300 / rails) in
    let* period = int_range 1 4 in
    (* the last position loops back a whole number of periods, if at all *)
    let* loop = option ~ratio:0.67 (int_range 1 (max 1 (length / period))) in
    let* along = list_repeat period move in
    let* across = list_repeat period (option move) in
    let nb_states = rails * length in
    (* skips along the backbone, on every rail; then noise *)
    let* skips =
      list_size (int_bound 3) (triple (int_bound (length - 1)) move (int_bound (length - 1)))
    in
    let* noise =
      list_size (int_bound 1)
        (triple (int_bound (nb_states - 1)) move (int_bound (nb_states - 1)))
    in
    let labels = Label.create () in
    let interactive = ref [] and markovian = ref [] in
    let add ~rail s m d =
      match m with
      | Either.Left rates ->
        List.iter
          (fun r -> markovian := (s, r, d) :: !markovian)
          (if rail = 0 then rates else List.rev rates)
      | Either.Right l ->
        interactive := (s, Label.intern labels l, d) :: !interactive
    in
    let state pos rail = (pos * rails) + rail in
    let next pos =
      if pos + 1 < length then Some (pos + 1)
      else Option.map (fun k -> max 0 (length - (k * period))) loop
    in
    for pos = 0 to length - 1 do
      let phase = pos mod period in
      Option.iter
        (fun next ->
           for rail = 0 to rails - 1 do
             add ~rail (state pos rail) (List.nth along phase) (state next rail);
             match List.nth across phase with
             | Some m when rails = 2 ->
               add ~rail (state pos rail) m (state next (1 - rail))
             | _ -> ()
           done)
        (next pos)
    done;
    List.iter
      (fun (pos, m, pos') ->
         for rail = 0 to rails - 1 do
           add ~rail (state pos rail) m (state pos' rail)
         done)
      skips;
    List.iter (fun (s, m, d) -> add ~rail:0 s m d) noise;
    return
      (Imc.make ~nb_states ~initial:0 ~labels ~interactive:(List.rev !interactive)
         ~markovian:(List.rev !markovian)))

let lump_backbone_matches_legacy_prop =
  QCheck2.Test.make ~name:"lump: flat engine = legacy engine (chains, ladders)"
    ~count:100 backbone_imc_gen
    (fun imc ->
       same_partition (Lump.partition imc) (Mv_oracle.Lump.partition imc))

(* The generators stay below branching's parallel threshold (64
   states), so the engines also run on bench E10's case studies. Lumping runs on the 12+12 tandem's IMC, as generated
   and as the performance pipeline closes it (only [pop] visible), and
   on the benchmark's model: the closed 40+40 tandem near saturation. *)
let test_case_studies_match_oracle () =
  let tandem c =
    Mv_xstream.Queues.tandem ~arrival:2.0 ~transfer:4.0 ~service:3.0
      ~capacity1:c ~capacity2:c
  in
  let lts spec = Mv_calc.State_space.lts spec in
  let cases =
    [
      ("tandem 12+12", Lts.hide (lts (tandem 12)) ~gates:[ "push" ]);
      ("tandem 20+20", Lts.hide (lts (tandem 20)) ~gates:[ "push" ]);
      ("FAME2", lts (Mv_fame.Distributed.spec Mv_fame.Distributed.Correct));
      ( "FAUST mesh",
        lts
          (Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered
             ~flows:Mv_faust.Mesh.crossing_flows) );
    ]
  in
  let check name flat oracle =
    Alcotest.(check bool) name true (same_partition flat oracle)
  in
  Mv_par.Pool.scope ~domains:4 (fun pool ->
      List.iter
        (fun (name, lts) ->
           check (name ^ " strong") (Strong.partition lts)
             (Mv_oracle.Strong.partition lts);
           let branching = Mv_oracle.Branching.partition lts in
           let div = Mv_oracle.Branching.partition ~divergence_sensitive:true lts in
           List.iter
             (fun (j, pool) ->
                let at what = Printf.sprintf "%s %s -j%d" name what j in
                check (at "branching") (Branching.partition ?pool lts) branching;
                check (at "divbranching")
                  (Branching.partition ?pool ~divergence_sensitive:true lts)
                  div)
             [ (1, None); (4, Some pool) ])
        cases);
  let imc = Imc.of_lts (lts (tandem 12)) in
  let closed =
    Imc.maximal_progress (Imc.hide imc ~gates:[ "push"; "mid"; "push2" ])
  in
  check "lump tandem 12+12" (Lump.partition imc) (Mv_oracle.Lump.partition imc);
  check "lump closed tandem 12+12" (Lump.partition closed)
    (Mv_oracle.Lump.partition closed);
  let saturated =
    Mv_xstream.Queues.tandem ~arrival:2.9 ~transfer:4.0 ~service:3.0
      ~capacity1:40 ~capacity2:40
  in
  let closed =
    Imc.maximal_progress
      (Imc.hide (Imc.of_lts (lts saturated)) ~gates:[ "push"; "mid"; "push2" ])
  in
  check "lump closed tandem 40+40" (Lump.partition closed)
    (Mv_oracle.Lump.partition closed)

(* ---- solver kernels ---- *)

(* A random ergodic CTMC: a cycle 0 -> 1 -> ... -> n-1 -> 0 guarantees
   irreducibility, plus random extra transitions. *)
let ctmc_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 2 30 in
    let* extra =
      list_size (int_bound 40)
        (triple (int_bound (nb_states - 1))
           (float_range 0.2 5.0)
           (int_bound (nb_states - 1)))
    in
    let cycle =
      List.init nb_states (fun s ->
          { Ctmc.src = s; rate = 1.0; actions = []; dst = (s + 1) mod nb_states })
    in
    let extra =
      List.map (fun (s, r, d) -> { Ctmc.src = s; rate = r; actions = []; dst = d })
        extra
    in
    return (Ctmc.make ~nb_states ~initial:0 (cycle @ extra)))

let max_abs_diff a b =
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let solver_methods_agree_prop =
  QCheck2.Test.make ~name:"solver: gs and direct give the same vector"
    ~count:60 ctmc_gen
    (fun ctmc ->
       let gs = Ctmc.steady_state ~method_:Solver.Gauss_seidel ctmc in
       let direct = Ctmc.steady_state ctmc in
       max_abs_diff gs direct < 1e-9)

(* A cycle system 0 -> 1 -> ... -> n-1 -> 0, all rates 1: steady
   state is uniform, and the conflict graph is the cycle itself. *)
let cycle_system n =
  {
    Solver.size = n;
    border = 0;
    in_row = Array.init (n + 1) Fun.id;
    in_src = Array.init n (fun j -> (j + n - 1) mod n);
    in_rate = Array.make n 1.0;
    exit = Array.make n 1.0;
  }

let test_solver_run_config () =
  let cfg = Solver.config () in
  Alcotest.(check bool) "no method forced by default" true
    (cfg.Solver.method_ = None);
  let n = 5 in
  let sys = cycle_system n in
  let pi = Array.make n (1.0 /. float_of_int n) in
  let outcome =
    Solver.run
      (Solver.config ~method_:Solver.Gauss_seidel ~tolerance:1e-12 ())
      sys pi
  in
  Alcotest.(check bool) "converged" true outcome.Solver.converged;
  Alcotest.(check bool) "sweeps counted" true (outcome.Solver.sweeps > 0);
  Alcotest.(check bool) "residual below tolerance" true
    (outcome.Solver.residual <= 1e-12);
  Array.iter
    (fun x ->
       Alcotest.(check bool) "uniform steady state" true
         (Float.abs (x -. 0.2) < 1e-9))
    pi;
  (* the default eliminates a system this small: no sweeps *)
  let pi = Array.make n (1.0 /. float_of_int n) in
  let outcome = Solver.run (Solver.config ~tolerance:1e-12 ()) sys pi in
  Alcotest.(check int) "direct: no sweeps" 0 outcome.Solver.sweeps;
  Alcotest.(check bool) "direct: converged" true outcome.Solver.converged;
  Array.iter
    (fun x ->
       Alcotest.(check bool) "direct: uniform steady state" true
         (Float.abs (x -. 0.2) < 1e-15))
    pi

(* The system of [n] states with incoming lists [incoming.(j)] of
   [(source, rate)] pairs, its first [border] states as border
   columns. *)
let system_of_incoming ~border incoming =
  let n = Array.length incoming in
  let in_row = Array.make (n + 1) 0 in
  Array.iteri (fun j ins -> in_row.(j + 1) <- in_row.(j) + List.length ins) incoming;
  let flat = List.concat (Array.to_list incoming) in
  let exit = Array.make n 0.0 in
  List.iter (fun (i, r) -> exit.(i) <- exit.(i) +. r) flat;
  {
    Solver.size = n;
    border;
    in_row;
    in_src = Array.of_list (List.map fst flat);
    in_rate = Array.of_list (List.map snd flat);
    exit;
  }

(* Birth-death system over [n] states: [j] is fed by [j - 1] at rate 1
   and by [j + 1] at rate 2, so both bandwidths are 1. *)
let birth_death_system n =
  system_of_incoming ~border:0
    (Array.init n (fun j ->
         (if j > 0 then [ (j - 1, 1.0) ] else [])
         @ if j < n - 1 then [ (j + 1, 2.0) ] else []))

(* Run [f] with fresh, enabled telemetry; return its result and the
   value of each named counter afterwards. *)
let with_counters names f =
  Mv_obs.Obs.reset ();
  Mv_obs.Obs.enable ();
  Fun.protect ~finally:Mv_obs.Obs.reset (fun () ->
      let r = f () in
      (r, List.map (fun c -> Mv_obs.Obs.(counter_value (counter c))) names))

let direct_counters = [ "solver.direct"; "solver.direct_fallbacks" ]

(* The cost model on both sides of its caps. A cycle of n states in
   BFS order has bandwidths (n - 1, 1): its band is n * (n + 1)
   floats, so the largest cycle within the band cap is eliminated and
   the next one is swept. *)
let test_direct_cost_cap () =
  Alcotest.(check (pair int int)) "cycle bandwidths" (9, 1)
    (Solver.bandwidths (cycle_system 10));
  Alcotest.(check (pair int int)) "birth-death bandwidths" (1, 1)
    (Solver.bandwidths (birth_death_system 10));
  let cap = ref 2 in
  while
    let n = float_of_int (!cap + 1) in
    n *. (n +. 1.0) <= Solver.direct_max_band_words
    && n *. (n -. 1.0) <= Solver.direct_max_updates
  do
    incr cap
  done;
  Alcotest.(check bool) "largest cycle within the caps is eliminated" true
    (Solver.eliminates (cycle_system !cap));
  let wide = cycle_system (!cap + 1) in
  Alcotest.(check bool) "next cycle is not" false (Solver.eliminates wide);
  (* above the cap: the sweeps run (a uniform cycle is solved by one) *)
  let n = wide.Solver.size in
  let pi = Array.make n (1.0 /. float_of_int n) in
  let outcome, counts =
    with_counters direct_counters (fun () ->
        Solver.run (Solver.config ()) wide pi)
  in
  Alcotest.(check bool) "wide: swept" true (outcome.Solver.sweeps > 0);
  Alcotest.(check (list int)) "wide: not eliminated" [ 0; 0 ] counts;
  (* within the cap: eliminated, no sweeps, and the answer is the
     geometric distribution pi_j ~ (1/2)^j *)
  let n = 2000 in
  let sys = birth_death_system n in
  let pi = Array.make n (1.0 /. float_of_int n) in
  let outcome, counts =
    with_counters direct_counters (fun () ->
        Solver.run (Solver.config ()) sys pi)
  in
  Alcotest.(check int) "narrow: no sweeps" 0 outcome.Solver.sweeps;
  Alcotest.(check bool) "narrow: converged" true outcome.Solver.converged;
  Alcotest.(check (list int)) "narrow: eliminated, no fallback" [ 1; 0 ] counts;
  Alcotest.(check bool) "narrow: pi_0 = 1/2" true (Float.abs (pi.(0) -. 0.5) < 1e-15);
  Alcotest.(check bool) "narrow: pi_1 = 1/4" true (Float.abs (pi.(1) -. 0.25) < 1e-15)

(* A zero pivot: the last state has no transition back to the others,
   so the system is not irreducible. The sweeps take over from [pi] as
   given and drain the mass into the absorbing state. *)
let test_direct_zero_pivot_fallback () =
  let sys =
    {
      Solver.size = 3;
      border = 0;
      (* 0 <-> 1 at rate 1, 0 -> 2 at rate 1, nothing out of 2 *)
      in_row = [| 0; 1; 2; 3 |];
      in_src = [| 1; 0; 0 |];
      in_rate = [| 1.0; 1.0; 1.0 |];
      exit = [| 2.0; 1.0; 0.0 |];
    }
  in
  let pi = Array.make 3 (1.0 /. 3.0) in
  let outcome, counts =
    with_counters direct_counters (fun () ->
        Solver.run (Solver.config ()) sys pi)
  in
  Alcotest.(check (list int)) "eliminated, then fell back" [ 1; 1 ] counts;
  Alcotest.(check bool) "swept" true (outcome.Solver.sweeps > 0);
  Alcotest.(check bool) "converged" true outcome.Solver.converged;
  Alcotest.(check bool) "mass drained into state 2" true
    (Float.abs (pi.(2) -. 1.0) < 1e-9)

(* A residual above the tolerance: the sweeps continue from the
   eliminated vector. No residual passes a negative tolerance, so the
   fallback is certain; the stiff chain shows where the sweeps started,
   since three sweeps from the uniform vector are nowhere near it. *)
let test_direct_residual_fallback () =
  let n = 200 in
  let sys = birth_death_system n in
  let exact = Array.make n (1.0 /. float_of_int n) in
  ignore (Solver.run (Solver.config ()) sys exact);
  let pi = Array.make n (1.0 /. float_of_int n) in
  let outcome, counts =
    with_counters direct_counters (fun () ->
        Solver.run (Solver.config ~tolerance:(-1.0) ~max_sweeps:3 ()) sys pi)
  in
  Alcotest.(check (list int)) "eliminated, then fell back" [ 1; 1 ] counts;
  Alcotest.(check int) "swept to the budget" 3 outcome.Solver.sweeps;
  Alcotest.(check bool) "not converged" false outcome.Solver.converged;
  Alcotest.(check bool) "continued from the eliminated vector" true
    (max_abs_diff pi exact < 1e-12);
  let uniform = Array.make n (1.0 /. float_of_int n) in
  ignore
    (Solver.run
       (Solver.config ~method_:Solver.Gauss_seidel ~tolerance:(-1.0)
          ~max_sweeps:3 ())
       sys uniform);
  Alcotest.(check bool) "three sweeps from uniform are far off" true
    (max_abs_diff uniform exact > 1e-3)

(* A hub at state 0, fed by each of the other [n] states at rate 1 and
   feeding state 1, beside a birth-death chain on 1..n (up 1, down 2):
   a renewal chain's shape. As a border column the hub leaves the band
   1 wide; as a band column it makes the band as wide as the system. *)
let test_direct_border () =
  let n = 3_000 in
  let incoming =
    Array.init (n + 1) (fun j ->
        if j = 0 then List.init n (fun i -> (i + 1, 1.0))
        else
          (if j = 1 then [ (0, 1.0) ] else [ (j - 1, 1.0) ])
          @ if j < n then [ (j + 1, 2.0) ] else [])
  in
  let banded = system_of_incoming ~border:0 incoming in
  let bordered = system_of_incoming ~border:1 incoming in
  Alcotest.(check (pair int int)) "hub in the band" (n, 1)
    (Solver.bandwidths banded);
  Alcotest.(check (pair int int)) "hub as a border column" (1, 1)
    (Solver.bandwidths bordered);
  Alcotest.(check bool) "banded: beyond the caps" false (Solver.eliminates banded);
  Alcotest.(check bool) "bordered: eliminated" true (Solver.eliminates bordered);
  let direct = Array.make (n + 1) (1.0 /. float_of_int (n + 1)) in
  let outcome, counts =
    with_counters direct_counters (fun () ->
        Solver.run (Solver.config ()) bordered direct)
  in
  Alcotest.(check int) "no sweeps" 0 outcome.Solver.sweeps;
  Alcotest.(check (list int)) "eliminated, no fallback" [ 1; 0 ] counts;
  let swept = Array.make (n + 1) (1.0 /. float_of_int (n + 1)) in
  let outcome =
    Solver.run (Solver.config ~method_:Solver.Gauss_seidel ()) banded swept
  in
  Alcotest.(check bool) "sweeps converged" true outcome.Solver.converged;
  Alcotest.(check bool) "same vector" true (max_abs_diff direct swept < 1e-12)

(* Property: the elimination with the first [b] states as border
   columns gives the vector of the plain banded elimination within
   1e-12 relative, on random irreducible systems (a ring 0 -> 1 -> ...
   -> n-1 -> 0 plus random chords, rates log-uniform over 1e-6..1e3). *)
let direct_border_prop =
  let gen =
    QCheck2.Gen.(
      let rate = map (fun e -> 10.0 ** e) (float_range (-6.0) 3.0) in
      let* n = int_range 2 30 in
      let* border = int_bound (min 3 (n - 1)) in
      let* ring = list_repeat n rate in
      let* chords =
        list_size (int_bound (2 * n))
          (triple (int_bound (n - 1)) (int_bound (n - 1)) rate)
      in
      return (n, border, ring, chords))
  in
  let print (n, border, ring, chords) =
    Printf.sprintf "n=%d border=%d ring=[%s] chords=[%s]" n border
      (String.concat "; " (List.map (Printf.sprintf "%h") ring))
      (String.concat "; "
         (List.map (fun (s, d, r) -> Printf.sprintf "%d->%d %h" s d r) chords))
  in
  QCheck2.Test.make ~name:"solver: border columns = plain band within 1e-12"
    ~count:200 ~print gen
    (fun (n, border, ring, chords) ->
       let incoming = Array.make n [] in
       let add s d r = if s <> d then incoming.(d) <- (s, r) :: incoming.(d) in
       List.iteri (fun i r -> add i ((i + 1) mod n) r) ring;
       List.iter (fun (s, d, r) -> add s d r) chords;
       let solve border =
         let pi = Array.make n (1.0 /. float_of_int n) in
         let outcome =
           Solver.run (Solver.config ()) (system_of_incoming ~border incoming) pi
         in
         (pi, outcome.Solver.sweeps = 0 && outcome.Solver.converged)
       in
       let plain, plain_ok = solve 0 in
       let bordered, bordered_ok = solve border in
       plain_ok && bordered_ok
       && Array.for_all2
            (fun a b -> abs_float (a -. b) <= 1e-12 *. Float.max a b)
            plain bordered)

(* With telemetry off, a sweep allocates a constant number of words,
   whatever the number of states: the per-state sums stay unboxed. The
   per-sweep figure is the difference between a long and a short run,
   so the one-time set-up cancels out. *)
let test_sweeps_allocation_free () =
  Mv_obs.Obs.reset ();
  let n = 2000 in
  let sys = birth_death_system n in
  let run sweeps =
    let pi = Array.make n (1.0 /. float_of_int n) in
    let cfg =
      Solver.config ~method_:Solver.Gauss_seidel ~tolerance:0.0
        ~max_sweeps:sweeps ()
    in
    let before = Gc.minor_words () in
    let outcome = Solver.run cfg sys pi in
    (Gc.minor_words () -. before, outcome.Solver.sweeps)
  in
  let w1, s1 = run 50 in
  let w2, s2 = run 250 in
  let per_sweep = (w2 -. w1) /. float_of_int (s2 - s1) in
  Alcotest.(check bool)
    (Printf.sprintf "gs: %.1f minor words per sweep over %d states" per_sweep n)
    true (per_sweep < 32.0)

let test_solver_method_names () =
  List.iter
    (fun (name, expected) ->
       let got =
         Option.map Solver.method_name (Solver.method_of_name name)
       in
       Alcotest.(check (option string)) name expected got)
    [
      ("jacobi", None);
      ("gs", Some "gs");
      ("gauss-seidel", Some "gs");
      ("sor", None);
      ("newton", None);
    ]

let suite =
  [
    Alcotest.test_case "csr forward matches iter_out" `Quick
      test_csr_forward_matches_iter_out;
    Alcotest.test_case "csr reverse matches iter_in" `Quick
      test_csr_reverse_matches_iter_in;
    Alcotest.test_case "csr determinism check" `Quick test_csr_deterministic;
    Alcotest.test_case "refinable partition mark/split" `Quick
      test_part_mark_split;
    Alcotest.test_case "refinable partition canonical assignment" `Quick
      test_part_assignment_canonical;
    Alcotest.test_case "sort_dedup" `Quick test_sort_dedup;
    QCheck_alcotest.to_alcotest sort_dedup_prop;
    QCheck_alcotest.to_alcotest strong_matches_legacy_prop;
    QCheck_alcotest.to_alcotest branching_matches_legacy_prop;
    QCheck_alcotest.to_alcotest divbranching_matches_legacy_prop;
    QCheck_alcotest.to_alcotest lump_matches_legacy_prop;
    QCheck_alcotest.to_alcotest lump_backbone_matches_legacy_prop;
    Alcotest.test_case "flat engines = legacy engines on the case studies" `Quick
      test_case_studies_match_oracle;
    QCheck_alcotest.to_alcotest solver_methods_agree_prop;
    Alcotest.test_case "solver method names" `Quick test_solver_method_names;
    Alcotest.test_case "Solver.run config API" `Quick test_solver_run_config;
    Alcotest.test_case "solver: direct path on each side of the cost cap"
      `Quick test_direct_cost_cap;
    Alcotest.test_case "solver: zero pivot falls back to the sweeps" `Quick
      test_direct_zero_pivot_fallback;
    Alcotest.test_case "solver: residual fallback continues the sweeps" `Quick
      test_direct_residual_fallback;
    Alcotest.test_case "solver: a border column keeps a hub out of the band"
      `Quick test_direct_border;
    QCheck_alcotest.to_alcotest direct_border_prop;
    Alcotest.test_case "solver sweeps allocate nothing per state" `Quick
      test_sweeps_allocation_free;
  ]
