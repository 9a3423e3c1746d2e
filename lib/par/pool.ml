type t = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int; (* bumped per job; wakes parked workers *)
  mutable pending : int;
  mutable failure : exn option;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let record_failure pool exn =
  Mutex.lock pool.mutex;
  if pool.failure = None then pool.failure <- Some exn;
  Mutex.unlock pool.mutex

let worker pool index =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.epoch = !last && not pool.stop do
      Condition.wait pool.start pool.mutex
    done;
    if pool.stop then begin
      running := false;
      Mutex.unlock pool.mutex
    end
    else begin
      last := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      (try job index with exn -> record_failure pool exn);
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.finished;
      Mutex.unlock pool.mutex
    end
  done

let create ~domains () =
  let size = max 1 domains in
  let pool =
    {
      size;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      epoch = 0;
      pending = 0;
      failure = None;
      stop = false;
      domains = [||];
    }
  in
  pool.domains <-
    Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker pool i));
  pool

let size pool = pool.size

let run_plain pool f =
  if pool.size = 1 then f 0
  else begin
    Mutex.lock pool.mutex;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    pool.job <- Some f;
    pool.failure <- None;
    pool.pending <- pool.size - 1;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.start;
    Mutex.unlock pool.mutex;
    (* the caller is the last worker *)
    let own_failure =
      match f (pool.size - 1) with () -> None | exception exn -> Some exn
    in
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    let failure = pool.failure in
    pool.job <- None;
    Mutex.unlock pool.mutex;
    match own_failure, failure with
    | Some exn, _ | None, Some exn -> raise exn
    | None, None -> ()
  end

(* When telemetry is on, time each domain's share of the job and fold
   it into accumulating busy/idle gauges (flushed by the caller's
   domain once the run is over, so gauge read-modify-write never
   races). *)
let run pool f =
  let module Obs = Mv_obs.Obs in
  if pool.size = 1 || not (Obs.is_enabled ()) then run_plain pool f
  else begin
    let busy = Array.make pool.size 0.0 in
    let t0 = Obs.Clock.now_ns () in
    let timed w =
      let s0 = Obs.Clock.now_ns () in
      match f w with
      | () -> busy.(w) <- Obs.Clock.elapsed_s s0
      | exception exn ->
        busy.(w) <- Obs.Clock.elapsed_s s0;
        raise exn
    in
    let flush () =
      let wall = Obs.Clock.elapsed_s t0 in
      let total_busy = Array.fold_left ( +. ) 0.0 busy in
      Obs.incr (Obs.counter "par.runs");
      let accumulate name dt =
        let g = Obs.gauge name in
        Obs.set g (Obs.gauge_value g +. dt)
      in
      accumulate "par.pool.wall_s" wall;
      accumulate "par.pool.idle_s"
        (max 0.0 ((wall *. float_of_int pool.size) -. total_busy));
      Array.iteri
        (fun w dt -> accumulate (Printf.sprintf "par.domain%d.busy_s" w) dt)
        busy
    in
    match run_plain pool timed with
    | () -> flush ()
    | exception exn ->
      flush ();
      raise exn
  end

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.start;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let scope ~domains f =
  let pool = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let auto () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* The data-parallel loop.

   [[lo, hi)] is cut into chunks of [chunk_size] indices (the last one
   short) before any worker starts, and a body never creates more
   work, so one shared cursor is the whole schedule: every worker
   claims the next claim number by [Atomic.fetch_and_add] until the
   cursor passes the last one. Timing decides which worker runs a
   chunk, never which indices a chunk holds.

   The chunks are laid out as [workers] regions of [rows] consecutive
   chunks, and claim [k] is chunk [k / workers] of region
   [k mod workers]. Claims made at about the same time therefore run
   chunks far apart in the range, so workers do not write the same
   cache lines: DES replications mutate per-replication RNG records
   laid out side by side, and handing out neighbouring chunks slowed
   [mval simulate --replications 64 -j 2] by about a quarter. *)

(* Small enough that every worker gets about eight chunks, so a slow
   chunk does not leave the others idle; large enough to amortize a
   claim; capped at 1024 indices. *)
let chunk_size ~workers ~lo ~hi = min 1024 (max 1 ((hi - lo) / (8 * workers)))

let for_ ~pool ~lo ~hi f =
  let workers = pool.size in
  let size = chunk_size ~workers ~lo ~hi in
  let nb = (hi - lo + size - 1) / size in
  if workers = 1 || nb <= 1 then
    for i = lo to hi - 1 do
      f i
    done
  else begin
    let module Obs = Mv_obs.Obs in
    if Obs.is_enabled () then begin
      Obs.add (Obs.counter "par.chunks") nb;
      let sizes = Obs.histogram "par.chunk_size" in
      for c = 0 to nb - 1 do
        let a = lo + (c * size) in
        Obs.observe sizes (float_of_int (min hi (a + size) - a))
      done
    end;
    let rows = (nb + workers - 1) / workers in
    let cursor = Atomic.make 0 in
    run pool (fun _ ->
        let rec claim () =
          let k = Atomic.fetch_and_add cursor 1 in
          if k < workers * rows then begin
            let c = (k mod workers * rows) + (k / workers) in
            if c < nb then begin
              let a = lo + (c * size) in
              for i = a to min hi (a + size) - 1 do
                f i
              done
            end;
            claim ()
          end
        in
        claim ())
  end
