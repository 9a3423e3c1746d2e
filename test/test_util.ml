(* Unit and property tests for mv_util: Bitset, Rng. *)

module Bitset = Mv_util.Bitset
module Rng = Mv_util.Rng

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" false (Bitset.mem s 64);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Bitset.to_list s)

let test_bitset_complement_full () =
  let s = Bitset.create 13 in
  Bitset.add s 5;
  Bitset.complement s;
  Alcotest.(check int) "complement cardinal" 12 (Bitset.cardinal s);
  Alcotest.(check bool) "5 gone" false (Bitset.mem s 5);
  Alcotest.(check bool) "12 present" true (Bitset.mem s 12);
  let f = Bitset.full 13 in
  Alcotest.(check int) "full" 13 (Bitset.cardinal f);
  Bitset.complement f;
  Alcotest.(check bool) "complement of full is empty" true (Bitset.is_empty f)

let test_bitset_set_ops () =
  let a = Bitset.of_list 20 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 20 [ 3; 4; 5; 6 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5; 6; 7 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into ~into:i b;
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bitset.to_list i);
  Alcotest.(check bool) "equal self" true (Bitset.equal a a);
  Alcotest.(check bool) "not equal" false (Bitset.equal a b)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitset.add") (fun () ->
      Bitset.add s 8)

(* Property: bitset operations agree with a sorted-list model. *)
let bitset_model_prop =
  QCheck2.Test.make ~name:"bitset agrees with list model" ~count:200
    QCheck2.Gen.(
      pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
       let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
       let u = Bitset.copy a in
       Bitset.union_into ~into:u b;
       let i = Bitset.copy a in
       Bitset.inter_into ~into:i b;
       let model_u = List.sort_uniq compare (xs @ ys) in
       let model_i =
         List.sort_uniq compare (List.filter (fun x -> List.mem x ys) xs)
       in
       Bitset.to_list u = model_u
       && Bitset.to_list i = model_i
       && Bitset.cardinal u = List.length model_u)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done;
  let c = Rng.create 43L in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next_int64 (Rng.create 42L) <> Rng.next_int64 c)

let test_rng_ranges () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let i = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 10);
    let e = Rng.exponential rng ~rate:2.0 in
    Alcotest.(check bool) "exponential nonneg" true (e >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 123L in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~rate:4.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f close to 0.25" mean)
    true
    (abs_float (mean -. 0.25) < 0.01)

let test_rng_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "rate 0" (Invalid_argument "Rng.exponential") (fun () ->
      ignore (Rng.exponential rng ~rate:0.0))

(* Statistical independence smoke test for split streams (the
   per-replication seeding of the parallel simulator): two streams
   split off the same master look uniform and uncorrelated. *)
let test_rng_split_independence () =
  let master = Rng.create 2024L in
  let a = Rng.split master in
  let b = Rng.split master in
  let n = 10_000 in
  let xs = Array.init n (fun _ -> Rng.float a) in
  let ys = Array.init n (fun _ -> Rng.float b) in
  let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int n in
  let mx = mean xs and my = mean ys in
  Alcotest.(check bool)
    (Printf.sprintf "mean a %.4f uniform" mx)
    true
    (abs_float (mx -. 0.5) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "mean b %.4f uniform" my)
    true
    (abs_float (my -. 0.5) < 0.02);
  let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
  for i = 0 to n - 1 do
    cov := !cov +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    vx := !vx +. ((xs.(i) -. mx) ** 2.0);
    vy := !vy +. ((ys.(i) -. my) ** 2.0)
  done;
  let corr = !cov /. sqrt (!vx *. !vy) in
  (* the paired-draw sample correlation sits inside the ~3/sqrt(n)
     noise band around zero for independent streams *)
  Alcotest.(check bool)
    (Printf.sprintf "correlation %.4f near zero" corr)
    true
    (abs_float corr < 0.03);
  Alcotest.(check bool) "streams distinct" true (xs <> ys)

let suite =
  [
    Alcotest.test_case "bitset basics" `Quick test_bitset_basic;
    Alcotest.test_case "bitset complement/full" `Quick test_bitset_complement_full;
    Alcotest.test_case "bitset union/inter/equal" `Quick test_bitset_set_ops;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    QCheck_alcotest.to_alcotest bitset_model_prop;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng invalid args" `Quick test_rng_invalid;
    Alcotest.test_case "rng split independence" `Quick
      test_rng_split_independence;
  ]
