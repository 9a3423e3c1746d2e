(* Tests for mv_store: the .mvb binary LTS format (round trips,
   corruption detection) and the content-addressed artifact cache
   (memoization, self-repair, LRU eviction, persistence) plus the
   cache's integration with Flow.Run and Svl. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Aut = Mv_lts.Aut
module Mvb = Mv_store.Mvb
module Cache = Mv_store.Cache
module Flow = Mv_core.Flow
module Svl = Mv_core.Svl
module Json = Mv_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let build transitions ~nb_states ~initial =
  let labels = Label.create () in
  let interned =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) transitions
  in
  Lts.make ~nb_states ~initial ~labels interned

let sample_lts () =
  build ~nb_states:4 ~initial:0
    [ (0, "a", 1); (1, "i", 2); (2, "b !1", 3); (3, "a", 0); (0, "b !1", 2) ]

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let in_sandbox f =
  let dir = Filename.temp_file "mv_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* .mvb format                                                         *)

(* Property: aut -> mvb -> aut is the identity on the serialized text
   (the formats are lossless with respect to each other). *)
let mvb_round_trip_prop =
  let gen =
    QCheck2.Gen.(
      let* nb_states = int_range 1 15 in
      let* transitions =
        list_size (int_bound 40)
          (triple (int_bound (nb_states - 1))
             (oneofl [ "a"; "b"; "i"; "G !1"; "odd \"label\""; "rate 2.5" ])
             (int_bound (nb_states - 1)))
      in
      return (nb_states, transitions))
  in
  QCheck2.Test.make ~name:"aut -> mvb -> aut identity" ~count:100 gen
    (fun (nb_states, transitions) ->
       let lts = build ~nb_states ~initial:0 transitions in
       let back = Mvb.of_string (Mvb.to_string lts) in
       Aut.to_string back = Aut.to_string lts)

let test_mvb_file_round_trip () =
  in_sandbox (fun dir ->
      let lts = sample_lts () in
      let path = Filename.concat dir "t.mvb" in
      Mvb.write_file path lts;
      let back = Mvb.read_file path in
      Alcotest.(check string) "identical" (Aut.to_string lts)
        (Aut.to_string back))

let expect_corrupt name thunk =
  match thunk () with
  | (_ : Lts.t) -> Alcotest.fail (name ^ ": expected Mvb.Corrupt")
  | exception Mvb.Corrupt _ -> ()

let test_mvb_corruption () =
  let encoded = Mvb.to_string (sample_lts ()) in
  (* flip one byte somewhere past the header: CRC must catch it *)
  let flipped = Bytes.of_string encoded in
  let i = String.length encoded / 2 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  expect_corrupt "bit flip" (fun () ->
      Mvb.of_string (Bytes.to_string flipped));
  expect_corrupt "truncation" (fun () ->
      Mvb.of_string (String.sub encoded 0 (String.length encoded - 3)));
  expect_corrupt "trailing garbage" (fun () -> Mvb.of_string (encoded ^ "x"));
  expect_corrupt "bad magic" (fun () -> Mvb.of_string ("XYZ" ^ encoded))

(* Well-framed files (every CRC holds) whose state 0 lists its moves
   out of canonical (label, dst) order, or twice: both readers refuse
   them, so a replay of a file's transitions is always canonical. *)
let test_mvb_canonical_rows () =
  let v = Mvb.Varint.to_string in
  let u32le n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  let section tag payload =
    String.make 1 tag ^ v (String.length payload) ^ payload
    ^ u32le (Mvb.crc32 payload)
  in
  let file moves =
    "MVB\x01\x01"
    ^ section 'M' (v 2 ^ v 0 ^ v 2 ^ v (List.length moves))
    ^ section 'L' (v 1 ^ "i" ^ v 1 ^ "a")
    ^ section 'T'
        (v (List.length moves)
        ^ String.concat "" (List.map (fun (l, d) -> v l ^ v d) moves)
        ^ v 0)
    ^ "E"
  in
  Alcotest.(check int) "canonical file reads" 2
    (Lts.nb_transitions (Mvb.of_string (file [ (0, 1); (1, 1) ])));
  in_sandbox (fun dir ->
      List.iter
        (fun (name, moves) ->
           expect_corrupt name (fun () -> Mvb.of_string (file moves));
           let path = Filename.concat dir "rows.mvb" in
           Out_channel.with_open_bin path (fun oc ->
               output_string oc (file moves));
           match Mvb.Segment.openfile path with
           | (_ : Mvb.Segment.t) -> Alcotest.fail (name ^ ": segment opened")
           | exception Mvb.Corrupt _ -> ())
        [ ("labels out of order", [ (1, 1); (0, 1) ]);
          ("destinations out of order", [ (1, 1); (1, 0) ]);
          ("duplicate move", [ (1, 1); (1, 1) ]) ])

let test_mvb_empty_lts () =
  let lts = build ~nb_states:1 ~initial:0 [] in
  let back = Mvb.of_string (Mvb.to_string lts) in
  Alcotest.(check int) "one state" 1 (Lts.nb_states back);
  Alcotest.(check int) "no transitions" 0 (Lts.nb_transitions back)

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)

(* Property: LEB128 round trip, with the generator weighted toward the
   7-bit group boundaries (127/128, 16383/16384, ...) up to the 63-bit
   top of the OCaml int range. *)
let varint_round_trip_prop =
  let boundaries =
    List.concat_map
      (fun k ->
         let edge = 1 lsl (7 * k) in
         [ edge - 1; edge; edge + 1 ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    @ [ 0; 1; max_int - 1; max_int ]
  in
  let gen =
    QCheck2.Gen.(
      oneof [ oneofl boundaries; int_bound (1 lsl 55); int_bound 1_000_000 ])
  in
  let rec expected_len n = if n < 128 then 1 else 1 + expected_len (n lsr 7) in
  QCheck2.Test.make ~name:"varint round trip" ~count:500 gen (fun n ->
      let s = Mvb.Varint.to_string n in
      Mvb.Varint.of_string s = n && String.length s = expected_len n)

let test_varint_edges () =
  (* max_int = 2^62 - 1 occupies 62 bits: ceil(62/7) = 9 bytes *)
  Alcotest.(check int) "max_int is 9 bytes" 9
    (String.length (Mvb.Varint.to_string max_int));
  Alcotest.(check int) "max_int round trip" max_int
    (Mvb.Varint.of_string (Mvb.Varint.to_string max_int));
  let corrupt name s =
    match Mvb.Varint.of_string s with
    | (_ : int) -> Alcotest.fail (name ^ ": expected Mvb.Corrupt")
    | exception Mvb.Corrupt _ -> ()
  in
  corrupt "empty" "";
  corrupt "unterminated" "\x80\x80";
  corrupt "trailing byte" (Mvb.Varint.to_string 5 ^ "\x00");
  (* ten continuation groups put bit 70 in play: past the 63-bit limit
     of the decoder, which must refuse rather than wrap silently *)
  corrupt "overflow" "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"

(* ------------------------------------------------------------------ *)
(* Streaming writer / segment reader                                   *)

(* Property: streaming states one at a time produces byte-identical
   files to the one-shot writer (so out-of-core generation artifacts
   are indistinguishable from in-RAM ones). *)
let stream_identity_prop =
  let gen =
    QCheck2.Gen.(
      let* nb_states = int_range 1 15 in
      let* transitions =
        list_size (int_bound 40)
          (triple (int_bound (nb_states - 1))
             (oneofl [ "a"; "b"; "i"; "G !1"; "rate 2.5" ])
             (int_bound (nb_states - 1)))
      in
      return (nb_states, transitions))
  in
  QCheck2.Test.make ~name:"streamed .mvb = materialized .mvb" ~count:100 gen
    (fun (nb_states, transitions) ->
       in_sandbox (fun dir ->
           let lts = build ~nb_states ~initial:0 transitions in
           let whole = Filename.concat dir "whole.mvb" in
           let streamed = Filename.concat dir "streamed.mvb" in
           Mvb.write_file whole lts;
           let w = Mvb.Stream.create ~labels:(Lts.labels lts) streamed in
           for s = 0 to Lts.nb_states lts - 1 do
             let moves = ref [] in
             Lts.iter_out lts s (fun l d -> moves := (l, d) :: !moves);
             (* reversed, deliberately: add_state must canonicalize *)
             Mvb.Stream.add_state w (Array.of_list !moves)
           done;
           Mvb.Stream.finish w ~initial:(Lts.initial lts);
           read_file whole = read_file streamed))

let test_stream_canonicalizes () =
  in_sandbox (fun dir ->
      let lts =
        build ~nb_states:2 ~initial:0 [ (0, "a", 1); (0, "b", 1); (1, "a", 0) ]
      in
      let whole = Filename.concat dir "whole.mvb" in
      let streamed = Filename.concat dir "streamed.mvb" in
      Mvb.write_file whole lts;
      let labels = Lts.labels lts in
      let a = Mv_lts.Label.intern labels "a"
      and b = Mv_lts.Label.intern labels "b" in
      let w = Mvb.Stream.create ~labels streamed in
      (* out of order and duplicated: the writer must sort + dedup
         exactly like Lts.make *)
      Mvb.Stream.add_state w [| (b, 1); (a, 1); (a, 1) |];
      Mvb.Stream.add_state w [| (a, 0) |];
      Mvb.Stream.finish w ~initial:0;
      Alcotest.(check string) "identical bytes" (read_file whole)
        (read_file streamed))

let test_stream_validates () =
  in_sandbox (fun dir ->
      let path = Filename.concat dir "bad.mvb" in
      let labels = Mv_lts.Label.create () in
      let a = Mv_lts.Label.intern labels "a" in
      let w = Mvb.Stream.create ~labels path in
      Mvb.Stream.add_state w [| (a, 7) |];
      (* same contract as [Lts.make]: a dangling target is a caller
         bug, signalled as Invalid_argument, not file corruption *)
      (match Mvb.Stream.finish w ~initial:0 with
       | () -> Alcotest.fail "expected Invalid_argument: dangling target"
       | exception Invalid_argument _ -> ());
      (* a failed finish must leave no file and no scratch behind *)
      Alcotest.(check (array string)) "nothing left" [||] (Sys.readdir dir))

let test_segment_reader () =
  in_sandbox (fun dir ->
      (* > 2 directory strides (1024 states each), cyclic, irregular
         degrees: exercises skip-decoding from mid-stride offsets *)
      let n = 2500 in
      let transitions = ref [] in
      for s = 0 to n - 1 do
        transitions := (s, "step", (s + 1) mod n) :: !transitions;
        if s mod 3 = 0 then transitions := (s, "hop", (s + 7) mod n) :: !transitions
      done;
      let lts = build ~nb_states:n ~initial:0 !transitions in
      let path = Filename.concat dir "big.mvb" in
      Mvb.write_file path lts;
      let seg = Mvb.Segment.openfile path in
      Alcotest.(check int) "states" n (Mvb.Segment.nb_states seg);
      Alcotest.(check int) "initial" 0 (Mvb.Segment.initial seg);
      Alcotest.(check int) "transitions" (Lts.nb_transitions lts)
        (Mvb.Segment.nb_transitions seg);
      (* random access across stride boundaries *)
      List.iter
        (fun s ->
           Alcotest.(check int)
             (Printf.sprintf "degree of %d" s)
             (Lts.out_degree lts s)
             (Mvb.Segment.out_degree seg s);
           let expected = ref [] and got = ref [] in
           Lts.iter_out lts s (fun l d -> expected := (l, d) :: !expected);
           Mvb.Segment.iter_out seg s (fun l d -> got := (l, d) :: !got);
           Alcotest.(check (list (pair int int)))
             (Printf.sprintf "moves of %d" s)
             (List.rev !expected) (List.rev !got))
        [ 0; 1; 1023; 1024; 1025; 2047; 2048; n - 1 ];
      (* full sweep agrees with the in-RAM iteration *)
      let all = ref [] in
      Mvb.Segment.iter_all seg (fun s l d -> all := (s, l, d) :: !all);
      let reference = ref [] in
      Lts.iter_transitions lts (fun s l d -> reference := (s, l, d) :: !reference);
      Alcotest.(check int) "sweep size" (List.length !reference)
        (List.length !all);
      Alcotest.(check bool) "sweep identical" true (!all = !reference))

let test_mvb_stats () =
  in_sandbox (fun dir ->
      let lts = sample_lts () in
      let path = Filename.concat dir "t.mvb" in
      Mvb.write_file path lts;
      let s = Mvb.stats path in
      Alcotest.(check int) "states" (Lts.nb_states lts) s.Mvb.s_nb_states;
      Alcotest.(check int) "initial" (Lts.initial lts) s.Mvb.s_initial;
      Alcotest.(check int) "labels"
        (Mv_lts.Label.count (Lts.labels lts))
        s.Mvb.s_nb_labels;
      Alcotest.(check int) "transitions" (Lts.nb_transitions lts)
        s.Mvb.s_nb_transitions;
      Alcotest.(check int) "file bytes"
        (in_channel_length (open_in_bin path))
        s.Mvb.s_file_bytes)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_memoize () =
  in_sandbox (fun dir ->
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let computed = ref 0 in
      let compute () =
        incr computed;
        sample_lts ()
      in
      let a = Cache.memoize_lts cache ~op:"t" "source" compute in
      let b = Cache.memoize_lts cache ~op:"t" "source" compute in
      Alcotest.(check int) "computed once" 1 !computed;
      Alcotest.(check string) "identical results" (Aut.to_string a)
        (Aut.to_string b);
      let hits, misses = Cache.session cache in
      Alcotest.(check (pair int int)) "one hit, one miss" (1, 1) (hits, misses);
      (* different op or params or source: distinct keys *)
      ignore (Cache.memoize_lts cache ~op:"u" "source" compute);
      ignore
        (Cache.memoize_lts cache ~op:"t" ~params:[ ("k", "v") ] "source"
           compute);
      ignore (Cache.memoize_lts cache ~op:"t" "other source" compute);
      Alcotest.(check int) "each recomputed" 4 !computed;
      (* params order does not matter *)
      Alcotest.(check string) "params order canonical"
        (Cache.key ~op:"o" ~params:[ ("a", "1"); ("b", "2") ] "s")
        (Cache.key ~op:"o" ~params:[ ("b", "2"); ("a", "1") ] "s"))

let test_cache_repairs_corruption () =
  in_sandbox (fun dir ->
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let computed = ref 0 in
      let compute () =
        incr computed;
        sample_lts ()
      in
      ignore (Cache.memoize_lts cache ~op:"t" "s" compute);
      (* poison every stored object on disk *)
      let objects = Filename.concat (Filename.concat dir "c") "objects" in
      Array.iter
        (fun name ->
           let path = Filename.concat objects name in
           let oc = open_out_bin path in
           output_string oc "garbage";
           close_out oc)
        (Sys.readdir objects);
      (* the poisoned entry is a miss; recomputation repairs it *)
      ignore (Cache.memoize_lts cache ~op:"t" "s" compute);
      Alcotest.(check int) "recomputed after poisoning" 2 !computed;
      ignore (Cache.memoize_lts cache ~op:"t" "s" compute);
      Alcotest.(check int) "repaired" 2 !computed;
      (* truncation of the object file is also caught *)
      Array.iter
        (fun name ->
           let path = Filename.concat objects name in
           let contents =
             In_channel.with_open_bin path In_channel.input_all
           in
           let oc = open_out_bin path in
           output_string oc (String.sub contents 0 5);
           close_out oc)
        (Sys.readdir objects);
      ignore (Cache.memoize_lts cache ~op:"t" "s" compute);
      Alcotest.(check int) "recomputed after truncation" 3 !computed)

let test_cache_eviction () =
  in_sandbox (fun dir ->
      let payload i = String.make 100 (Char.chr (Char.code 'a' + i)) in
      let cache = Cache.open_dir ~max_bytes:250 (Filename.concat dir "c") in
      for i = 0 to 4 do
        Cache.store cache ~key:(Cache.key ~op:"raw" (string_of_int i)) ~op:"raw"
          (payload i)
      done;
      let s = Cache.stats cache in
      Alcotest.(check bool) "within cap" true (s.Cache.bytes <= 250);
      Alcotest.(check int) "entries evicted down to cap" 2 s.Cache.entries;
      Alcotest.(check int) "evictions counted" 3 s.Cache.evictions;
      (* the survivors are the most recently stored *)
      Alcotest.(check bool) "LRU evicts oldest" true
        (Cache.find cache ~key:(Cache.key ~op:"raw" "4") <> None);
      Alcotest.(check bool) "oldest gone" true
        (Cache.find cache ~key:(Cache.key ~op:"raw" "0") = None))

let test_cache_persistence () =
  in_sandbox (fun dir ->
      let root = Filename.concat dir "c" in
      let computed = ref 0 in
      let compute () =
        incr computed;
        sample_lts ()
      in
      let cache = Cache.open_dir root in
      ignore (Cache.memoize_lts cache ~op:"t" "s" compute);
      (* a fresh handle on the same directory sees the entry *)
      let reopened = Cache.open_dir root in
      ignore (Cache.memoize_lts reopened ~op:"t" "s" compute);
      Alcotest.(check int) "hit across handles" 1 !computed;
      let s = Cache.stats reopened in
      Alcotest.(check bool) "lifetime hits persisted" true (s.Cache.hits >= 1);
      (* deleting the index forces a rebuild from the object files *)
      Sys.remove (Filename.concat root "index.json");
      let rebuilt = Cache.open_dir root in
      ignore (Cache.memoize_lts rebuilt ~op:"t" "s" compute);
      Alcotest.(check int) "hit after index rebuild" 1 !computed;
      (* clear removes everything *)
      Alcotest.(check int) "clear" 1 (Cache.clear rebuilt);
      ignore (Cache.memoize_lts rebuilt ~op:"t" "s" compute);
      Alcotest.(check int) "recomputed after clear" 2 !computed)

let test_stats_json () =
  in_sandbox (fun dir ->
      let cache = Cache.open_dir (Filename.concat dir "c") in
      Cache.store cache ~key:(Cache.key ~op:"raw" "x") ~op:"raw" "payload";
      let json = Json.of_string (Json.to_string (Cache.stats_json cache)) in
      Alcotest.(check bool) "schema" true
        (Json.member "schema" json = Some (Json.String "mv-store-stats-v1"));
      Alcotest.(check bool) "entries" true
        (Json.member "entries" json = Some (Json.Int 1)))

(* ------------------------------------------------------------------ *)
(* Flow integration                                                    *)

let queue_model =
  {|
process Producer := rate 2.0 ; push ; Producer
process Consumer := pop ; rate 3.0 ; Consumer
process Queue (n : int[0..2]) :=
    [n < 2] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
init (Producer |[push]| Queue(0)) |[pop]| Consumer
|}

(* The pool is not part of the cache key: a sequential run primes the
   cache for a parallel one and vice versa. Generation takes no pool,
   so the cached step is a minimization. *)
let test_pool_not_in_key () =
  in_sandbox (fun dir ->
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let lts =
        Flow.Run.generate Flow.Config.default (Flow.model_of_text queue_model)
      in
      let sequential =
        Flow.Run.minimize
          Flow.Config.(with_cache (Some cache) default)
          Flow.Branching lts
      in
      let parallel =
        Mv_par.Pool.scope ~domains:4 (fun pool ->
            Flow.Run.minimize
              Flow.Config.(default |> with_cache (Some cache) |> with_pool (Some pool))
              Flow.Branching lts)
      in
      let hits, misses = Cache.session cache in
      Alcotest.(check (pair int int)) "second run hits" (1, 1) (hits, misses);
      Alcotest.(check string) "identical LTS" (Aut.to_string sequential)
        (Aut.to_string parallel))

let test_flow_performance_cached () =
  in_sandbox (fun dir ->
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let spec = Flow.model_of_text queue_model in
      let config =
        Flow.Config.(default |> with_cache (Some cache) |> with_keep [ "pop" ])
      in
      let cold = Flow.Run.performance config spec in
      let cold_t = Flow.throughput cold ~gate:"pop" in
      let _, misses0 = Cache.session cache in
      let warm = Flow.Run.performance config spec in
      let warm_t = Flow.throughput warm ~gate:"pop" in
      let _, misses1 = Cache.session cache in
      Alcotest.(check int) "no new misses when warm" misses0 misses1;
      (* bit-identical, not approximately equal: the lumped IMC crossed
         the cache through the exact-rate encoding *)
      Alcotest.(check bool) "identical throughput" true (cold_t = warm_t))

(* ------------------------------------------------------------------ *)
(* Svl integration                                                     *)

let svl_script =
  {|
"q.aut" = generate "queue.mvl" hide push ;
"min.mvb" = branching reduction of "q.aut" ;
check deadlock of "q.aut" ;
solve "queue.mvl" keep pop ;
|}

let write_queue_model dir =
  let oc = open_out (Filename.concat dir "queue.mvl") in
  output_string oc queue_model;
  close_out oc

let strip step = (step.Svl.description, Svl.ok step, step.Svl.detail)

let test_svl_warm_run () =
  in_sandbox (fun dir ->
      write_queue_model dir;
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let cold = Svl.run_string ~cache ~dir svl_script in
      let warm = Svl.run_string ~cache ~dir svl_script in
      Alcotest.(check bool) "all ok" true
        (Svl.all_ok cold && Svl.all_ok warm);
      Alcotest.(check (list (triple string bool string)))
        "warm run byte-identical" (List.map strip cold) (List.map strip warm);
      (* every cacheable warm step is all hits, no misses *)
      List.iter
        (fun step ->
           match step.Svl.outcome with
           | Svl.Passed { cache = Some { hits; misses }; _ } ->
             if
               Astring.String.is_infix ~affix:"generate"
                 step.Svl.description
               || Astring.String.is_infix ~affix:"reduction"
                    step.Svl.description
             then begin
               Alcotest.(check bool)
                 (step.Svl.description ^ ": warm hits") true (hits > 0);
               Alcotest.(check int)
                 (step.Svl.description ^ ": no warm misses") 0 misses
             end
           | Svl.Passed { cache = None; _ } ->
             Alcotest.fail "cache provenance missing"
           | Svl.Failed_check | Svl.Hard_error _ -> ())
        warm)

let test_svl_steps_json () =
  in_sandbox (fun dir ->
      write_queue_model dir;
      let cache = Cache.open_dir (Filename.concat dir "c") in
      let steps = Svl.run_string ~cache ~dir svl_script in
      let json = Json.of_string (Json.to_string (Svl.steps_json steps)) in
      Alcotest.(check bool) "schema" true
        (Json.member "schema" json = Some (Json.String "mv-svl-steps-v1"));
      match Json.member "steps" json with
      | Some (Json.List items) ->
        Alcotest.(check int) "all steps rendered" (List.length steps)
          (List.length items);
        List.iter
          (fun item ->
             match Json.member "outcome" item with
             | Some (Json.String ("passed" | "failed" | "error")) -> ()
             | _ -> Alcotest.fail "bad outcome tag")
          items;
        (* the generate step records its artifact and cache traffic *)
        let first = List.hd items in
        (match Json.member "artifacts" first with
         | Some (Json.List [ Json.String path ]) ->
           Alcotest.(check bool) "artifact path resolved" true
             (Astring.String.is_suffix ~affix:"q.aut" path)
         | _ -> Alcotest.fail "expected one artifact");
        (match Json.member "cache" first with
         | Some (Json.Obj _) -> ()
         | _ -> Alcotest.fail "expected cache object")
      | _ -> Alcotest.fail "expected steps list")

let test_svl_unwritable_target () =
  in_sandbox (fun dir ->
      write_queue_model dir;
      (* the target's parent directory does not exist: a hard error
         reported against the real statement, not an exception *)
      let steps =
        Svl.run_string ~dir {|"missing_sub/q.aut" = generate "queue.mvl" ;|}
      in
      Alcotest.(check int) "stopped" 1 (List.length steps);
      match (List.hd steps).Svl.outcome with
      | Svl.Hard_error _ ->
        Alcotest.(check bool) "real description" true
          (Astring.String.is_infix ~affix:"missing_sub/q.aut"
             (List.hd steps).Svl.description)
      | Svl.Passed _ | Svl.Failed_check ->
        Alcotest.fail "expected Hard_error")

(* ------------------------------------------------------------------ *)
(* Out-of-core flow (generate_mvb / minimize_mvb)                      *)

(* The acceptance contract of the out-of-core pipeline: the streamed
   artifact and the minimized artifact are byte-identical to their
   in-RAM counterparts, at every pool size, even when the seen set is
   forced to spill. *)
let check_ooc_flow ~pool () =
  in_sandbox (fun dir ->
      let spec = Flow.model_of_text queue_model in
      let config =
        { Flow.Config.default with
          pool;
          scratch_dir = Some dir;
          (* tiny hot budget: forces spill runs + batched cold lookups *)
          mem_budget_mb = Some 1;
        }
      in
      let ram = Flow.Run.generate { Flow.Config.default with pool } spec in
      let ram_path = Filename.concat dir "ram.mvb" in
      Mvb.write_file ram_path ram;
      let ooc_path = Filename.concat dir "ooc.mvb" in
      let outcome = Flow.Run.generate_mvb config spec ~out:ooc_path in
      Alcotest.(check int) "states" (Lts.nb_states ram)
        outcome.Mv_lts.Explore.ooc_states;
      Alcotest.(check string) "generated bytes identical" (read_file ram_path)
        (read_file ooc_path);
      let ram_min =
        Flow.Run.minimize { Flow.Config.default with pool } Flow.Strong ram
      in
      let ram_min_path = Filename.concat dir "ram_min.mvb" in
      Mvb.write_file ram_min_path ram_min;
      let ooc_min_path = Filename.concat dir "ooc_min.mvb" in
      let minimized =
        Flow.Run.minimize_mvb config Flow.Strong ~src:ooc_path ~dst:ooc_min_path
      in
      Alcotest.(check string) "minimized bytes identical"
        (read_file ram_min_path) (read_file ooc_min_path);
      Alcotest.(check int) "minimized states" (Lts.nb_states ram_min)
        (Lts.nb_states minimized);
      (* only the four artifacts remain: every spill run, mmap scratch
         and stream temp file has been cleaned up *)
      Alcotest.(check (list string)) "no scratch left"
        [ "ooc.mvb"; "ooc_min.mvb"; "ram.mvb"; "ram_min.mvb" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

let test_ooc_flow_sequential () = check_ooc_flow ~pool:None ()

let test_ooc_flow_parallel () =
  Mv_par.Pool.scope ~domains:4 (fun pool -> check_ooc_flow ~pool:(Some pool) ())

(* Property: on generated LTSs (deterministic and nondeterministic
   labels, self-loops, unreachable states), minimizing a .mvb out of
   core writes the bytes of the in-RAM minimization, with the oracle's
   number of reachable blocks, and leaves no scratch behind. *)
let ooc_minimize_prop =
  let gen =
    QCheck2.Gen.(
      let* nb_states = int_range 1 24 in
      let state = int_bound (nb_states - 1) in
      let* initial = state in
      let* deterministic = bool in
      let* moves =
        list_size (int_bound 60)
          (triple state (oneofl [ "a"; "b"; "i"; "G !1" ]) state)
      in
      let* loops = list_size (int_bound 4) (pair state (oneofl [ "a"; "i" ])) in
      let moves = moves @ List.map (fun (s, l) -> (s, l, s)) loops in
      (* one move per (state, label) makes every label deterministic *)
      let moves =
        if deterministic then
          List.sort_uniq (fun (s, l, _) (s', l', _) -> compare (s, l) (s', l')) moves
        else moves
      in
      return (nb_states, initial, moves))
  in
  QCheck2.Test.make ~name:"in-RAM = out-of-core strong minimize" ~count:200 gen
    (fun (nb_states, initial, moves) ->
       let lts = build ~nb_states ~initial moves in
       let expected =
         Mvb.to_string (Flow.Run.minimize Flow.Config.default Flow.Strong lts)
       in
       let oracle = Mv_oracle.Strong.partition lts in
       let reachable_blocks =
         Mv_util.Bitset.to_list (Lts.reachable lts)
         |> List.map (fun s -> oracle.block_of.(s))
         |> List.sort_uniq compare |> List.length
       in
       in_sandbox (fun dir ->
           let scratch = Filename.concat dir "scratch" in
           Sys.mkdir scratch 0o755;
           let src = Filename.concat dir "in.mvb" in
           let dst = Filename.concat dir "out.mvb" in
           Mvb.write_file src lts;
           let config = { Flow.Config.default with scratch_dir = Some scratch } in
           let minimized = Flow.Run.minimize_mvb config Flow.Strong ~src ~dst in
           read_file dst = expected
           && Lts.nb_states minimized = reachable_blocks
           && Sys.readdir scratch = [||]
           && List.sort compare (Array.to_list (Sys.readdir dir))
              = [ "in.mvb"; "out.mvb"; "scratch" ]))

let test_minimize_mvb_strong_only () =
  in_sandbox (fun dir ->
      let path = Filename.concat dir "t.mvb" in
      Mvb.write_file path (sample_lts ());
      match
        Flow.Run.minimize_mvb Flow.Config.default Flow.Branching ~src:path
          ~dst:(Filename.concat dir "o.mvb")
      with
      | (_ : Lts.t) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let suite =
  [
    QCheck_alcotest.to_alcotest mvb_round_trip_prop;
    Alcotest.test_case "mvb file round trip" `Quick test_mvb_file_round_trip;
    Alcotest.test_case "mvb corruption detection" `Quick test_mvb_corruption;
    Alcotest.test_case "mvb canonical rows" `Quick test_mvb_canonical_rows;
    Alcotest.test_case "mvb empty lts" `Quick test_mvb_empty_lts;
    QCheck_alcotest.to_alcotest varint_round_trip_prop;
    Alcotest.test_case "varint edges" `Quick test_varint_edges;
    QCheck_alcotest.to_alcotest stream_identity_prop;
    Alcotest.test_case "stream canonicalizes" `Quick test_stream_canonicalizes;
    Alcotest.test_case "stream validates" `Quick test_stream_validates;
    Alcotest.test_case "segment reader" `Quick test_segment_reader;
    Alcotest.test_case "mvb stats" `Quick test_mvb_stats;
    Alcotest.test_case "ooc flow sequential" `Quick test_ooc_flow_sequential;
    Alcotest.test_case "ooc flow parallel" `Quick test_ooc_flow_parallel;
    QCheck_alcotest.to_alcotest ooc_minimize_prop;
    Alcotest.test_case "minimize_mvb strong only" `Quick
      test_minimize_mvb_strong_only;
    Alcotest.test_case "cache memoize" `Quick test_cache_memoize;
    Alcotest.test_case "cache repairs corruption" `Quick
      test_cache_repairs_corruption;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache persistence" `Quick test_cache_persistence;
    Alcotest.test_case "cache stats json" `Quick test_stats_json;
    Alcotest.test_case "pool not in key" `Quick test_pool_not_in_key;
    Alcotest.test_case "performance pipeline cached" `Quick
      test_flow_performance_cached;
    Alcotest.test_case "svl warm run" `Quick test_svl_warm_run;
    Alcotest.test_case "svl steps json" `Quick test_svl_steps_json;
    Alcotest.test_case "svl unwritable target" `Quick
      test_svl_unwritable_target;
  ]
