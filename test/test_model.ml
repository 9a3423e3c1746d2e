(* Schedule-exploration tests: the shipped lock-free deque
   (Deque.Make) instantiated over the virtual atomics of
   Mv_par.Interleave, with every interleaving of its atomic accesses
   enumerated. A failure here is a linearizability bug with a
   deterministic repro (the Violation carries the thread-choice
   schedule). *)

module Interleave = Mv_par.Interleave
module A = Mv_par.Interleave.A
module VDeque = Mv_par.Deque.Make (Mv_par.Interleave.A)

let explore = Interleave.explore

let check_stats name min_schedules (stats : Interleave.stats) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: explored >= %d schedules (got %d)" name min_schedules
       stats.Interleave.schedules)
    true
    (stats.Interleave.schedules >= min_schedules)

(* ---- harness self-test ---- *)

(* A racy read-modify-write MUST be caught: if the harness cannot see
   this lost update, none of the passes below mean anything. *)
let test_detects_lost_update () =
  let raced =
    try
      ignore
        (explore
           ~setup:(fun () -> A.make 0)
           ~threads:
             [ (fun c -> A.set c (A.get c + 1));
               (fun c -> A.set c (A.get c + 1)) ]
           ~check:(fun c -> A.get c = 2)
           ());
      false
    with Interleave.Violation _ -> true
  in
  Alcotest.(check bool) "lost update detected" true raced

let test_fetch_and_add_is_atomic () =
  let stats =
    explore
      ~setup:(fun () -> A.make 0)
      ~threads:
        [ (fun c -> ignore (A.fetch_and_add c 1));
          (fun c -> ignore (A.fetch_and_add c 1));
          (fun c -> ignore (A.fetch_and_add c 1)) ]
      ~check:(fun c -> A.get c = 3)
      ()
  in
  check_stats "fetch_and_add" 6 stats

(* ---- Chase-Lev deque ---- *)

type 'a race_state = {
  d : 'a VDeque.t;
  got : 'a option ref array; (* per-thread take result *)
}

let taken st = Array.to_list st.got |> List.filter_map (fun r -> !r)

(* drain what the threads left behind (check runs solo) *)
let rec drain d = match VDeque.pop d with None -> [] | Some x -> x :: drain d

(* Exactly-once delivery: whatever the schedule, the elements taken by
   the threads plus the leftovers are the pushed multiset. *)
let deque_race ~name ~min_schedules ~pushed ~threads () =
  let stats =
    explore
      ~setup:(fun () ->
        let d = VDeque.create () in
        List.iter (VDeque.push d) pushed;
        { d; got = Array.init (List.length threads) (fun _ -> ref None) })
      ~threads:
        (List.mapi (fun k take -> fun st -> st.got.(k) := take st.d) threads)
      ~check:(fun st ->
        List.sort compare (taken st @ drain st.d) = List.sort compare pushed)
      ()
  in
  check_stats name min_schedules stats

(* one element, owner pop vs thief steal: the CAS showdown — at most
   one side may win, and the element must not vanish *)
let test_deque_last_element_race () =
  deque_race ~name:"last element" ~min_schedules:5 ~pushed:[ 7 ]
    ~threads:[ VDeque.pop; VDeque.steal ] ()

(* owner pushes and pops interleaved with a thief *)
let test_deque_owner_vs_thief () =
  let stats =
    explore
      ~setup:(fun () ->
        { d = VDeque.create (); got = [| ref None; ref None; ref None |] })
      ~threads:
        [ (fun st ->
            VDeque.push st.d 1;
            VDeque.push st.d 2;
            st.got.(0) := VDeque.pop st.d;
            st.got.(1) := VDeque.pop st.d);
          (fun st -> st.got.(2) := VDeque.steal st.d) ]
      ~check:(fun st ->
        List.sort compare (taken st @ drain st.d) = [ 1; 2 ])
      ()
  in
  check_stats "owner vs thief" 50 stats

(* two thieves racing on a two-element deque: the top CAS must hand
   each element to exactly one thief *)
let test_deque_steal_steal_race () =
  deque_race ~name:"steal/steal" ~min_schedules:20 ~pushed:[ 1; 2 ]
    ~threads:[ VDeque.steal; VDeque.steal ] ()

(* the deque starts at capacity 8: a 9th push grows the buffer while a
   thief holds a reference to the old one *)
let test_deque_growth_during_steal () =
  let pushed = List.init 8 Fun.id in
  let stats =
    explore
      ~setup:(fun () ->
        let d = VDeque.create () in
        List.iter (VDeque.push d) pushed;
        { d; got = [| ref None |] })
      ~threads:
        [ (fun st -> VDeque.push st.d 8);
          (fun st -> st.got.(0) := VDeque.steal st.d) ]
      ~check:(fun st ->
        List.sort compare (taken st @ drain st.d) = List.init 9 Fun.id)
      ()
  in
  check_stats "growth during steal" 10 stats

let suite =
  [
    Alcotest.test_case "harness detects a lost update" `Quick
      test_detects_lost_update;
    Alcotest.test_case "fetch_and_add is atomic" `Quick
      test_fetch_and_add_is_atomic;
    Alcotest.test_case "deque: last-element pop/steal race" `Quick
      test_deque_last_element_race;
    Alcotest.test_case "deque: owner push/pop vs thief" `Quick
      test_deque_owner_vs_thief;
    Alcotest.test_case "deque: steal/steal race" `Quick
      test_deque_steal_steal_race;
    Alcotest.test_case "deque: growth during steal" `Quick
      test_deque_growth_during_steal;
  ]
