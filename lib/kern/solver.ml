module Obs = Mv_obs.Obs

type method_ = Gauss_seidel

let method_of_name = function
  | "gs" | "gauss-seidel" -> Some Gauss_seidel
  | _ -> None

let method_name Gauss_seidel = "gs"

type system = {
  size : int;
  border : int;
  in_row : int array;
  in_src : int array;
  in_rate : float array;
  exit : float array;
}

type config = {
  method_ : method_ option;
  tolerance : float;
  max_sweeps : int;
}

let config ?method_ ?(tolerance = 1e-13) ?(max_sweeps = 200_000) () =
  { method_; tolerance; max_sweeps }

type outcome = { sweeps : int; residual : float; converged : bool }

(* Gauss-Seidel sweeps in the system's own state order, in place on
   [pi] until the residual reaches the tolerance or the sweep budget
   runs out. Each update reads the values already updated in the same
   sweep, so a correction travels along increasing state ids within
   one sweep: in BFS order, all the way round a cycle. The inflow sum
   and the residual max are kept in local accumulators, so a sweep
   boxes no float per state. *)
let sweep cfg sys pi =
  let k = sys.size in
  let sweeps = ref 0 in
  let delta = ref infinity in
  let residual_series = Obs.series "solver.residual" in
  let first_delta = ref 0.0 in
  let normalize () =
    let total = ref 0.0 in
    for j = 0 to k - 1 do
      total := !total +. pi.(j)
    done;
    if Float.is_finite !total && !total > 0.0 then
      for j = 0 to k - 1 do
        pi.(j) <- pi.(j) /. !total
      done
    else Array.fill pi 0 k (1.0 /. float_of_int k)
  in
  while (Float.is_nan !delta || !delta > cfg.tolerance) && !sweeps < cfg.max_sweeps
  do
    let m = ref 0.0 in
    for j = 0 to k - 1 do
      if sys.exit.(j) > 0.0 then begin
        let flow = ref 0.0 in
        for i = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
          flow := !flow +. (pi.(sys.in_src.(i)) *. sys.in_rate.(i))
        done;
        let updated = !flow /. sys.exit.(j) in
        let r = abs_float (updated -. pi.(j)) in
        if r > !m then m := r;
        pi.(j) <- updated
      end
    done;
    delta := !m;
    normalize ();
    incr sweeps;
    Obs.push residual_series !delta;
    if !first_delta = 0.0 then first_delta := !delta;
    if !sweeps land 255 = 0 then
      Obs.progress (fun () ->
          Printf.sprintf "solve: sweep %d, residual %.3g" !sweeps !delta)
  done;
  Obs.add (Obs.counter "solver.iterations") !sweeps;
  Obs.set (Obs.gauge "solver.final_residual") !delta;
  (* geometric-mean contraction factor per sweep — a cheap stand-in for
     the magnitude of the iteration operator's dominant eigenvalue *)
  if !sweeps > 1 && !first_delta > 0.0 && !delta > 0.0 then
    Obs.set
      (Obs.gauge "solver.contraction")
      (Float.exp
         (Float.log (!delta /. !first_delta) /. float_of_int (!sweeps - 1)));
  { sweeps = !sweeps; residual = !delta; converged = !delta <= cfg.tolerance }

(* ---- Direct solve: banded GTH elimination ---- *)

(* The cost model's caps, from the crossover measured in
   doc/performance.md: a system is eliminated when its update count
   [size * (bl + border) * (bu + border)] and its band plus border
   columns, [size * (bl + bu + 1 + border)] floats, are both within
   them. *)
let direct_max_updates = 200_000_000.0
let direct_max_band_words = 4_194_304.0

(* Lower and upper bandwidth of the generator outside the border
   columns: a transition [i -> j] into a state [j >= border] lies
   [i - j] below the diagonal when [i > j], [j - i] above it when
   [j > i]. *)
let bandwidths sys =
  let bl = ref 0 and bu = ref 0 in
  for j = sys.border to sys.size - 1 do
    for e = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
      let i = sys.in_src.(e) in
      if i - j > !bl then bl := i - j;
      if j - i > !bu then bu := j - i
    done
  done;
  (!bl, !bu)

let within_caps ~size ~border ~bl ~bu =
  let n = float_of_int size in
  n *. float_of_int (bl + border) *. float_of_int (bu + border)
  <= direct_max_updates
  && n *. float_of_int (bl + bu + 1 + border) <= direct_max_band_words

let eliminates sys =
  let bl, bu = bandwidths sys in
  within_caps ~size:sys.size ~border:sys.border ~bl ~bu

(* [max_j |update_j - pi_j|], the residual the sweeps stop on. *)
let balance_residual sys pi =
  let m = ref 0.0 in
  for j = 0 to sys.size - 1 do
    if sys.exit.(j) > 0.0 then begin
      let flow = ref 0.0 in
      for i = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
        flow := !flow +. (pi.(sys.in_src.(i)) *. sys.in_rate.(i))
      done;
      let r = abs_float ((!flow /. sys.exit.(j)) -. pi.(j)) in
      if Float.is_nan r || r > !m then m := r
    end
  done;
  !m

(* Grassmann-Taksar-Heyman elimination on the generator stored as a
   (bl, bu) band plus dense border columns: entry [(i, j)] lives at
   [cols.(j * size + i)] when [j < border], and otherwise row [i] keeps
   columns [i - bl .. i + bu] at [band.(i * w + col - i + bl)]. States
   are eliminated from the last down; eliminating [k] adds to the
   entries [(i, j)] with [i, j < k], [i -> k] and [k -> j]. A band
   entry [i -> k] has [k - bu <= i], a band entry [k -> j] has
   [k - bl <= j], so the fill lands inside the band or in a border
   column, and the work is at most [size * bu * (bl + border)] updates
   once [k] is past the border. Each pivot is a sum of rates, never a
   difference, so no pivoting is needed. The diagonal is never read.
   Writes the normalized vector into [pi] and returns [true]; returns
   [false] with [pi] untouched when a pivot is 0 (the system is not
   irreducible) or the vector does not normalize. *)
let gth sys ~bl ~bu pi =
  let n = sys.size and b = sys.border in
  let w = bl + bu + 1 in
  let band = Array.make (n * w) 0.0 in
  let cols = Array.make (b * n) 0.0 in
  for j = 0 to n - 1 do
    for e = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
      let i = sys.in_src.(e) in
      let at = if j < b then (j * n) + i else (i * w) + j - i + bl in
      let store = if j < b then cols else band in
      store.(at) <- store.(at) +. sys.in_rate.(e)
    done
  done;
  let irreducible = ref true in
  let k = ref (n - 1) in
  while !irreducible && !k > 0 do
    let k_ = !k in
    let row_k = (k_ * w) - k_ + bl in
    let lo = max b (k_ - bl) in
    let nb_cols = min b k_ in
    let s = ref 0.0 in
    for c = 0 to nb_cols - 1 do
      s := !s +. cols.((c * n) + k_)
    done;
    for j = lo to k_ - 1 do
      s := !s +. band.(row_k + j)
    done;
    if !s > 0.0 then begin
      (* scale the entry [(i, k)] held at [store.(at)] and add row [k],
         times it, to row [i] *)
      let eliminate i store at =
        let a = store.(at) in
        if a <> 0.0 then begin
          let a = a /. !s in
          store.(at) <- a;
          let row_i = (i * w) - i + bl in
          for j = lo to k_ - 1 do
            band.(row_i + j) <- band.(row_i + j) +. (a *. band.(row_k + j))
          done;
          for c = 0 to nb_cols - 1 do
            cols.((c * n) + i) <- cols.((c * n) + i) +. (a *. cols.((c * n) + k_))
          done
        end
      in
      if k_ < b then
        for i = 0 to k_ - 1 do
          eliminate i cols ((k_ * n) + i)
        done
      else
        for i = max 0 (k_ - bu) to k_ - 1 do
          eliminate i band ((i * w) + k_ - i + bl)
        done;
      decr k
    end
    else irreducible := false
  done;
  !irreducible
  && begin
    (* pi_j is the inflow from states below j in the chain censored
       on [0 .. j], whose column the elimination scaled by 1/s_j *)
    let x = Array.make n 1.0 in
    let total = ref 1.0 in
    for j = 1 to n - 1 do
      let acc = ref 0.0 in
      if j < b then
        for i = 0 to j - 1 do
          acc := !acc +. (x.(i) *. cols.((j * n) + i))
        done
      else
        for i = max 0 (j - bu) to j - 1 do
          acc := !acc +. (x.(i) *. band.((i * w) + j - i + bl))
        done;
      x.(j) <- !acc;
      total := !total +. !acc
    done;
    Float.is_finite !total
    && begin
      for j = 0 to n - 1 do
        pi.(j) <- x.(j) /. !total
      done;
      true
    end
  end

let run cfg sys pi =
  match cfg.method_ with
  | Some Gauss_seidel -> sweep cfg sys pi
  | None ->
    let bl, bu = bandwidths sys in
    Obs.set (Obs.gauge "solver.bandwidth_lower") (float_of_int bl);
    Obs.set (Obs.gauge "solver.bandwidth_upper") (float_of_int bu);
    if not (within_caps ~size:sys.size ~border:sys.border ~bl ~bu) then
      sweep cfg sys pi
    else begin
      (* both counters exist once a system is eliminated, so a run's
         metrics show its fallbacks even when there are none *)
      let fallbacks = Obs.counter "solver.direct_fallbacks" in
      Obs.incr (Obs.counter "solver.direct");
      let residual =
        if gth sys ~bl ~bu pi then balance_residual sys pi else infinity
      in
      if residual <= cfg.tolerance then begin
        Obs.set (Obs.gauge "solver.final_residual") residual;
        { sweeps = 0; residual; converged = true }
      end
      else begin
        (* a zero pivot leaves [pi] as given; a residual above the
           tolerance leaves the eliminated vector for the sweeps to
           finish *)
        Obs.incr fallbacks;
        sweep cfg sys pi
      end
    end
