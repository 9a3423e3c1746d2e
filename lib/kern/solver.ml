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
  pool : Mv_par.Pool.t option;
}

let config ?method_ ?(tolerance = 1e-13) ?(max_sweeps = 200_000) ?pool () =
  { method_; tolerance; max_sweeps; pool }

type outcome = { sweeps : int; residual : float; converged : bool }

(* Minimum color-class size worth fanning out; below it the loop-setup
   overhead beats the body. *)
let parallel_class_threshold = 512

(* Greedy multi-coloring of the conflict graph: states [i] and [j]
   conflict when a transition connects them in either direction, so
   within one color class no update reads another's write. Gauss-Seidel
   is then run in colored order — class 0 ascending, class 1
   ascending, ... — by {e every} configuration: at [-j 1] the permuted
   sweep is simply executed sequentially, at [-j N] each class is a
   parallel loop over disjoint slots, so the arithmetic (and hence the
   iterate sequence) is bitwise identical at any pool size. Returns
   [(order, class_start, nb_colors)] with class [c] occupying
   [order.(class_start.(c)) .. order.(class_start.(c + 1) - 1)]. *)
let coloring sys =
  let k = sys.size in
  let nb_in = Array.length sys.in_src in
  (* transpose the in-CSR to get out-adjacency *)
  let out_row = Array.make (k + 1) 0 in
  for e = 0 to nb_in - 1 do
    let i = sys.in_src.(e) in
    out_row.(i + 1) <- out_row.(i + 1) + 1
  done;
  for j = 1 to k do
    out_row.(j) <- out_row.(j) + out_row.(j - 1)
  done;
  let out_dst = Array.make nb_in 0 in
  let cursor = Array.copy out_row in
  for j = 0 to k - 1 do
    for e = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
      let i = sys.in_src.(e) in
      out_dst.(cursor.(i)) <- j;
      cursor.(i) <- cursor.(i) + 1
    done
  done;
  let degree j =
    sys.in_row.(j + 1) - sys.in_row.(j) + out_row.(j + 1) - out_row.(j)
  in
  let max_degree = ref 0 in
  for j = 0 to k - 1 do
    if degree j > !max_degree then max_degree := degree j
  done;
  let color = Array.make (max k 1) 0 in
  let used = Array.make (!max_degree + 2) (-1) in
  let nb_colors = ref (min 1 k) in
  for j = 0 to k - 1 do
    for e = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
      let i = sys.in_src.(e) in
      if i < j then used.(color.(i)) <- j
    done;
    for e = out_row.(j) to out_row.(j + 1) - 1 do
      let d = out_dst.(e) in
      if d < j then used.(color.(d)) <- j
    done;
    let c = ref 0 in
    while used.(!c) = j do
      incr c
    done;
    color.(j) <- !c;
    if !c + 1 > !nb_colors then nb_colors := !c + 1
  done;
  let nb_colors = !nb_colors in
  let class_start = Array.make (nb_colors + 1) 0 in
  for j = 0 to k - 1 do
    class_start.(color.(j) + 1) <- class_start.(color.(j) + 1) + 1
  done;
  for c = 1 to nb_colors do
    class_start.(c) <- class_start.(c) + class_start.(c - 1)
  done;
  let order = Array.make (max k 1) 0 in
  let fill = Array.copy class_start in
  for j = 0 to k - 1 do
    order.(fill.(color.(j))) <- j;
    fill.(color.(j)) <- fill.(color.(j)) + 1
  done;
  (order, class_start, nb_colors)

(* The largest entry of [residual] (0.0 when empty). The sweep bodies
   sum a state's inflow into a local accumulator and this max is kept
   in one too, so that a sweep boxes no float per state. *)
let max_residual residual =
  let m = ref 0.0 in
  for j = 0 to Array.length residual - 1 do
    if residual.(j) > !m then m := residual.(j)
  done;
  !m

(* The colored Gauss-Seidel sweeps, in place on [pi] until the residual
   reaches the tolerance or the sweep budget runs out. *)
let sweep cfg sys pi =
  let k = sys.size in
  let sweeps = ref 0 in
  let delta = ref infinity in
  let residual_series = Obs.series "solver.residual" in
  let first_delta = ref 0.0 in
  let record_sweep () =
    Obs.push residual_series !delta;
    if !first_delta = 0.0 then first_delta := !delta;
    if !sweeps land 255 = 0 then
      Obs.progress (fun () ->
          Printf.sprintf "solve: sweep %d, residual %.3g" !sweeps !delta)
  in
  let pool =
    match cfg.pool with
    | Some pool when Mv_par.Pool.size pool > 1 -> Some pool
    | _ -> None
  in
  (* The residual max and the normalization sums are always sequential
     in ascending state order, so they cost the same float operations
     in the same order at every pool size. *)
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
  let order, class_start, nb_colors = coloring sys in
  Obs.set (Obs.gauge "solver.colors") (float_of_int nb_colors);
  let residual = Array.make (max k 1) 0.0 in
  (* The colored order is periodic on bipartite conflict graphs (a
     pure cycle: each class only feeds the other, so the sweep operator
     keeps unit-modulus eigenvalues that natural-order propagation
     would have damped). Watch the best residual reached; when it stops
     improving, drop to an under-relaxed sweep (omega 0.7): damping
     moves every unit-circle eigenvalue except the stationary one
     strictly inside, restoring convergence. The switch is driven only
     by the residual sequence, which is bitwise identical at every pool
     size, so determinism is preserved. *)
  let omega = ref 1.0 in
  let best = ref infinity in
  let stall = ref 0 in
  let diverging () =
    if not (Float.is_finite !delta) then true
    else if !delta < 0.999 *. !best then begin
      (* a meaningful improvement, not just oscillation noise *)
      best := !delta;
      stall := 0;
      false
    end
    else begin
      if !delta < !best then best := !delta;
      incr stall;
      !stall >= 200
    end
  in
  let body idx =
    let j = order.(idx) in
    if sys.exit.(j) > 0.0 then begin
      let flow = ref 0.0 in
      for i = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
        flow := !flow +. (pi.(sys.in_src.(i)) *. sys.in_rate.(i))
      done;
      let updated = !flow /. sys.exit.(j) in
      residual.(j) <- abs_float (updated -. pi.(j));
      pi.(j) <-
        (if !omega = 1.0 then updated
         else ((1.0 -. !omega) *. pi.(j)) +. (!omega *. updated))
    end
    else residual.(j) <- 0.0
  in
  let continue_ = ref true in
  while !continue_ && !sweeps < cfg.max_sweeps do
    for c = 0 to nb_colors - 1 do
      let lo = class_start.(c) and hi = class_start.(c + 1) in
      match pool with
      | Some pool when hi - lo > parallel_class_threshold ->
        Mv_par.Pool.for_ ~pool ~lo ~hi body
      | _ ->
        for idx = lo to hi - 1 do
          body idx
        done
    done;
    delta := max_residual residual;
    normalize ();
    incr sweeps;
    record_sweep ();
    if !omega = 1.0 && diverging () then begin
      omega := 0.7;
      best := infinity;
      stall := 0;
      delta := infinity
    end;
    continue_ := Float.is_nan !delta || !delta > cfg.tolerance
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
