(* The yardstick: the machine's speed, measured with a fixed piece of
   work that does not touch the library. It is a breadth-first
   exploration of a 16,384-state space into a hash table, a sort of its
   73,728 transitions and floating-point sweeps over them: the mix of
   the flow's own hot paths (explore, refine, solve), with a heap of
   the same order, grown from nothing as a pass grows its own. The
   harness times it between passes, in a fresh process; a time measured
   in a pass, over the yardstick's time, is that time in units of this
   work, which the shared machine's slow stretches leave alone.

   The library cannot change this work, so a faster flow shows in
   full: only the yardstick is fixed. *)

let buffers = 7
let places = 4

(* The work; returns (states, transitions, checksum). *)
let work () =
  let seen = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let start = Array.make buffers 0 in
  Hashtbl.add seen start 0;
  Queue.push start queue;
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let src = Hashtbl.find seen s in
    for i = 0 to buffers - 1 do
      (* move a token from buffer i to buffer i+1, or in and out at the
         ends *)
      let t = Array.copy s in
      let ok =
        if i = buffers - 1 then t.(i) > 0 && (t.(i) <- t.(i) - 1; true)
        else if t.(i) > 0 && t.(i + 1) < places - 1 then (
          t.(i) <- t.(i) - 1;
          t.(i + 1) <- t.(i + 1) + 1;
          true)
        else false
      in
      let ok = ok || (i = 0 && s.(0) < places - 1 && (t.(0) <- s.(0) + 1; true)) in
      if ok then begin
        let dst =
          match Hashtbl.find_opt seen t with
          | Some d -> d
          | None ->
            let d = Hashtbl.length seen in
            Hashtbl.add seen t d;
            Queue.push t queue;
            d
        in
        edges := (src, i, dst) :: !edges
      end
    done
  done;
  let n = Hashtbl.length seen in
  let edges = Array.of_list !edges in
  Array.sort (fun (a, i, b) (c, j, d) -> compare (b, i, a) (d, j, c)) edges;
  let x = Array.make n (1.0 /. float n) in
  for _ = 1 to 8 do
    Array.iter (fun (a, i, b) -> x.(b) <- (0.5 *. x.(b)) +. (0.5 *. x.(a) /. float (i + 1))) edges
  done;
  let sum = Array.fold_left ( +. ) 0.0 x in
  (n, Array.length edges, Float.round (sum *. 1e6))

(* Seconds for the work, checked against its answer so that it cannot
   be optimised away or silently change. *)
let sample () =
  let t0 = Span.now_ns () in
  let answer = work () in
  let s = Span.seconds (Int64.sub (Span.now_ns ()) t0) in
  if answer <> (16_384, 73_728, 31.0) then failwith "the yardstick work changed its answer";
  s

(* The helper process ([mvbench.exe --yardstick]): after one untimed
   run, times the work once for every line it reads and prints the
   seconds; exits at the end of its input. *)
let serve () =
  ignore (sample ());
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some _ ->
      Printf.printf "%.9f\n%!" (sample ());
      loop ()
  in
  loop ()

(* The yardstick runs in processes of its own, so that nothing the
   program under test leaves running in its process (worker domains,
   their garbage collection, its heap) counts in it. They wait on a
   pipe while a pass runs. A workload that keeps n cores busy is
   measured with n helpers at once. *)
type t = (in_channel * out_channel) list

let start ~copies : t =
  let exe = Sys.executable_name in
  List.init copies (fun _ -> Unix.open_process_args exe [| exe; "--yardstick" |])

(* Seconds the work takes now: the mean over the helpers, which run it
   at the same time. *)
let measure (helpers : t) =
  List.iter (fun (_, oc) -> output_string oc "\n"; flush oc) helpers;
  let times =
    List.map
      (fun (ic, _) ->
        match Option.map String.trim (In_channel.input_line ic) with
        | Some line -> (
          match float_of_string_opt line with
          | Some s -> s
          | None -> failwith "yardstick process failed")
        | None -> failwith "yardstick process failed")
      helpers
  in
  List.fold_left ( +. ) 0.0 times /. float (List.length times)

(* Ends the helpers and waits for each. *)
let stop (helpers : t) = List.iter (fun p -> ignore (Unix.close_process p)) helpers

(* What [sample] takes on a quiet 2-vCPU Xeon VM. A time measured at
   the speed [measure] found, times [nominal_s /. measured], is that
   time at this nominal speed. *)
let nominal_s = 0.1
