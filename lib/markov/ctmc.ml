module Bitset = Mv_util.Bitset
module Obs = Mv_obs.Obs
module Solver = Mv_kern.Solver

type transition = {
  src : int;
  rate : float;
  actions : string list;
  dst : int;
}

type t = {
  nb_states : int;
  initial : int;
  transitions : transition array; (* sorted by src *)
  row : int array;
}

let make ~nb_states ~initial transitions =
  if initial < 0 || initial >= nb_states then invalid_arg "Ctmc.make: initial";
  List.iter
    (fun tr ->
       if tr.rate <= 0.0 then invalid_arg "Ctmc.make: rate must be positive";
       if tr.src < 0 || tr.src >= nb_states || tr.dst < 0 || tr.dst >= nb_states
       then invalid_arg "Ctmc.make: state out of range")
    transitions;
  let transitions =
    Array.of_list (List.sort (fun a b -> compare a.src b.src) transitions)
  in
  let row = Array.make (nb_states + 1) 0 in
  Array.iter (fun tr -> row.(tr.src + 1) <- row.(tr.src + 1) + 1) transitions;
  for s = 1 to nb_states do
    row.(s) <- row.(s) + row.(s - 1)
  done;
  { nb_states; initial; transitions; row }

let nb_states t = t.nb_states
let nb_transitions t = Array.length t.transitions
let initial t = t.initial
let iter_transitions t f = Array.iter f t.transitions

let iter_out t s f =
  for i = t.row.(s) to t.row.(s + 1) - 1 do
    f t.transitions.(i)
  done

let exit_rates t =
  let rates = Array.make t.nb_states 0.0 in
  Array.iter
    (fun tr -> if tr.src <> tr.dst then rates.(tr.src) <- rates.(tr.src) +. tr.rate)
    t.transitions;
  rates

let absorbing_states t =
  let rates = exit_rates t in
  let out = ref [] in
  for s = t.nb_states - 1 downto 0 do
    if rates.(s) = 0.0 then out := s :: !out
  done;
  !out

let embedded t =
  let rates = exit_rates t in
  let entries = ref [] in
  Array.iter
    (fun tr ->
       if tr.src <> tr.dst then
         entries := (tr.src, tr.dst, tr.rate /. rates.(tr.src)) :: !entries)
    t.transitions;
  Dtmc.make ~nb_states:t.nb_states ~initial:t.initial !entries

let iter_succ t s f =
  iter_out t s (fun tr -> if tr.dst <> tr.src then f tr.dst)

let bsccs t =
  let scc =
    Mv_lts.Scc.compute ~nb_states:t.nb_states ~iter_succ:(iter_succ t)
  in
  let is_bottom =
    Mv_lts.Scc.bottom ~nb_states:t.nb_states ~iter_succ:(iter_succ t) scc
  in
  let members = Array.make scc.count [] in
  for s = t.nb_states - 1 downto 0 do
    members.(scc.component.(s)) <- s :: members.(scc.component.(s))
  done;
  let out = ref [] in
  for c = scc.count - 1 downto 0 do
    if is_bottom.(c) then out := members.(c) :: !out
  done;
  !out

(* Stationary solve restricted to an irreducible subset:
   pi_j = (sum_{i in subset, i<>j} pi_i q_ij) / E_j.

   The subset is renumbered into a contiguous local system in BFS
   order from its first state (following outgoing transitions inside
   the subset), which keeps the incoming-CSR accesses of neighbouring
   states close together and the generator's band narrow; the solve
   itself is Mv_kern.Solver.run, which eliminates narrow subsets and
   sweeps the others unless [method_] forces the sweeps (any pool size
   gives bit-identical vectors). *)
let steady_state_on_subset t ?pool ?method_ ?(tolerance = 1e-13)
    ?(max_iterations = 200_000) subset =
  match subset with
  | [] -> invalid_arg "Ctmc.steady_state_on_subset: empty"
  | [ s ] ->
    let pi = Array.make t.nb_states 0.0 in
    pi.(s) <- 1.0;
    (pi, Solver_stats.exact)
  | first :: _ ->
    let member = Bitset.of_list t.nb_states subset in
    let size = List.length subset in
    (* BFS renumbering: glob.(j) is the global id of local state j *)
    let glob = Array.make size 0 in
    let loc = Array.make t.nb_states (-1) in
    let visited = ref 0 in
    let visit s =
      if loc.(s) < 0 then begin
        loc.(s) <- !visited;
        glob.(!visited) <- s;
        incr visited
      end
    in
    visit first;
    let head = ref 0 in
    while !head < !visited do
      let s = glob.(!head) in
      incr head;
      iter_out t s (fun tr ->
          if tr.dst <> tr.src && Bitset.mem member tr.dst then visit tr.dst)
    done;
    (* an irreducible subset is fully visited; sweep up the rest for
       safety on callers that pass a non-strongly-connected subset *)
    List.iter visit subset;
    let inside tr =
      tr.src <> tr.dst && Bitset.mem member tr.src && Bitset.mem member tr.dst
    in
    let in_row = Array.make (size + 1) 0 in
    Array.iter
      (fun tr -> if inside tr then in_row.(loc.(tr.dst) + 1) <- in_row.(loc.(tr.dst) + 1) + 1)
      t.transitions;
    for j = 1 to size do
      in_row.(j) <- in_row.(j) + in_row.(j - 1)
    done;
    let nb_in = in_row.(size) in
    let in_src = Array.make (max nb_in 1) 0 in
    let in_rate = Array.make (max nb_in 1) 0.0 in
    let exit = Array.make size 0.0 in
    let fill = Array.copy in_row in
    Array.iter
      (fun tr ->
         if inside tr then begin
           let j = loc.(tr.dst) in
           let i = fill.(j) in
           in_src.(i) <- loc.(tr.src);
           in_rate.(i) <- tr.rate;
           fill.(j) <- i + 1;
           exit.(loc.(tr.src)) <- exit.(loc.(tr.src)) +. tr.rate
         end)
      t.transitions;
    let sys = { Solver.size; in_row; in_src; in_rate; exit } in
    let local = Array.make size (1.0 /. float_of_int size) in
    let outcome =
      Solver.run
        (Solver.config ?method_ ~tolerance ~max_sweeps:max_iterations ?pool ())
        sys local
    in
    let iterations = outcome.Solver.sweeps in
    let residual = outcome.Solver.residual in
    let converged = outcome.Solver.converged in
    let pi = Array.make t.nb_states 0.0 in
    for j = 0 to size - 1 do
      pi.(glob.(j)) <- local.(j)
    done;
    (pi, Solver_stats.{ iterations; residual; converged })

(* Probability, from each state, of eventual absorption into a given
   BSCC, via Gauss-Seidel on the embedded chain: a_s = sum p_ss' a_s',
   with the caller's tolerance and sweep budget per BSCC. The stats add
   up the sweeps over the BSCCs. *)
let absorption_probabilities ~tolerance ~max_iterations t bscc_list =
  let rates = exit_rates t in
  let n = t.nb_states in
  let in_bscc = Array.make n (-1) in
  List.iteri (fun k members -> List.iter (fun s -> in_bscc.(s) <- k) members)
    bscc_list;
  let k_count = List.length bscc_list in
  let prob = Array.make_matrix k_count n 0.0 in
  List.iteri
    (fun k members -> List.iter (fun s -> prob.(k).(s) <- 1.0) members)
    bscc_list;
  (* iterate on transient states only *)
  let transient = ref [] in
  for s = n - 1 downto 0 do
    if in_bscc.(s) < 0 then transient := s :: !transient
  done;
  let sweep k =
    let delta = ref 0.0 in
    List.iter
      (fun s ->
         if rates.(s) > 0.0 then begin
           let acc = ref 0.0 in
           iter_out t s (fun tr ->
               if tr.dst <> tr.src then
                 acc := !acc +. (tr.rate /. rates.(s) *. prob.(k).(tr.dst)));
           delta := max !delta (abs_float (!acc -. prob.(k).(s)));
           prob.(k).(s) <- !acc
         end)
      !transient;
    !delta
  in
  let stats = ref Solver_stats.exact in
  if !transient <> [] then
    for k = 0 to k_count - 1 do
      let iteration = ref 0 in
      let delta = ref infinity in
      while !delta > tolerance && !iteration < max_iterations do
        delta := sweep k;
        incr iteration
      done;
      stats :=
        Solver_stats.combine !stats
          { iterations = !iteration; residual = !delta;
            converged = !delta <= tolerance }
    done;
  Obs.add (Obs.counter "solver.iterations") !stats.iterations;
  (prob, !stats)

let steady_state_stats ?pool ?method_ ?(tolerance = 1e-13)
    ?(max_iterations = 200_000) t =
  Obs.span "ctmc.steady_state" @@ fun () ->
  let bottom = bsccs t in
  match bottom with
  | [] -> assert false (* every finite digraph has a bottom SCC *)
  | [ single ] ->
    steady_state_on_subset t ?pool ?method_ ~tolerance ~max_iterations single
  | _ ->
    let reach, reach_stats =
      absorption_probabilities ~tolerance ~max_iterations t bottom
    in
    let pi = Array.make t.nb_states 0.0 in
    let stats = ref reach_stats in
    List.iteri
      (fun k members ->
         let alpha = reach.(k).(t.initial) in
         if alpha > 0.0 then begin
           let local, local_stats =
             steady_state_on_subset t ?pool ?method_ ~tolerance
               ~max_iterations members
           in
           stats := Solver_stats.combine !stats local_stats;
           List.iter (fun s -> pi.(s) <- pi.(s) +. (alpha *. local.(s))) members
         end)
      bottom;
    (pi, !stats)

let steady_state ?pool ?method_ ?tolerance ?max_iterations t =
  fst (steady_state_stats ?pool ?method_ ?tolerance ?max_iterations t)

let uniformization_matrix t =
  let rates = exit_rates t in
  let max_rate = Array.fold_left max 0.0 rates in
  if max_rate = 0.0 then None
  else begin
    let lambda = max_rate *. 1.02 in
    let entries = ref [] in
    Array.iter
      (fun tr ->
         if tr.src <> tr.dst then
           entries := (tr.src, tr.dst, tr.rate /. lambda) :: !entries)
      t.transitions;
    for s = 0 to t.nb_states - 1 do
      let stay = 1.0 -. (rates.(s) /. lambda) in
      if stay > 0.0 then entries := (s, s, stay) :: !entries
    done;
    Some (lambda, Sparse.of_triples ~rows:t.nb_states ~cols:t.nb_states !entries)
  end

let transient ?pool ?(epsilon = 1e-10) t ~horizon =
  if horizon < 0.0 then invalid_arg "Ctmc.transient: negative horizon";
  let point = Array.make t.nb_states 0.0 in
  point.(t.initial) <- 1.0;
  match uniformization_matrix t with
  | None -> point
  | Some (lambda, p) ->
    if horizon = 0.0 then point
    else begin
      let weights = Poisson.weights ~q:(lambda *. horizon) ~epsilon in
      let result = Array.make t.nb_states 0.0 in
      let current = ref point in
      for k = 0 to weights.right do
        if k >= weights.left then begin
          let w = weights.weights.(k - weights.left) in
          Array.iteri
            (fun s v -> result.(s) <- result.(s) +. (w *. v))
            !current
        end;
        if k < weights.right then current := Sparse.mul_left ?pool p !current
      done;
      result
    end

let accumulated_reward ?(tolerance = 1e-12) ?(max_iterations = 500_000) t
    ~reward ~targets =
  let n = t.nb_states in
  let is_target = Bitset.of_list n targets in
  (* backward reachability: which states can reach a target *)
  let preds = Array.make n [] in
  Array.iter
    (fun tr ->
       if tr.src <> tr.dst then preds.(tr.dst) <- tr.src :: preds.(tr.dst))
    t.transitions;
  let can_reach = Bitset.create n in
  let stack = ref targets in
  List.iter (Bitset.add can_reach) targets;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      List.iter
        (fun p ->
           if not (Bitset.mem can_reach p) then begin
             Bitset.add can_reach p;
             stack := p :: !stack
           end)
        preds.(s)
  done;
  let rates = exit_rates t in
  let hitting = Array.make n infinity in
  List.iter (fun s -> hitting.(s) <- 0.0) targets;
  Bitset.iter (fun s -> if not (Bitset.mem is_target s) then hitting.(s) <- 0.0)
    can_reach;
  (* Gauss-Seidel: h_s = 1/E_s + sum (q_sd / E_s) h_d over solvable
     states; a state that can reach targets but has a successor that
     cannot would make the expectation infinite, so treat any
     transition to a non-reaching state as infinite. *)
  let solvable s =
    Bitset.mem can_reach s && not (Bitset.mem is_target s) && rates.(s) > 0.0
  in
  let iteration = ref 0 in
  let delta = ref infinity in
  while !delta > tolerance && !iteration < max_iterations do
    delta := 0.0;
    for s = 0 to n - 1 do
      if solvable s then begin
        let acc = ref (reward s /. rates.(s)) in
        let infinite = ref false in
        iter_out t s (fun tr ->
            if tr.dst <> tr.src then begin
              if Bitset.mem can_reach tr.dst then
                acc := !acc +. (tr.rate /. rates.(s) *. hitting.(tr.dst))
              else infinite := true
            end);
        let updated = if !infinite then infinity else !acc in
        let change =
          if updated = infinity && hitting.(s) = infinity then 0.0
          else if updated = infinity || hitting.(s) = infinity then infinity
          else abs_float (updated -. hitting.(s))
        in
        delta := max !delta change;
        hitting.(s) <- updated
      end
    done;
    incr iteration
  done;
  hitting

let mean_first_passage ?tolerance ?max_iterations t ~targets =
  accumulated_reward ?tolerance ?max_iterations t ~reward:(fun _ -> 1.0)
    ~targets

let reach_probability_by ?(epsilon = 1e-10) t ~targets ~horizon =
  let is_target = Bitset.of_list t.nb_states targets in
  let trimmed =
    Array.to_list t.transitions
    |> List.filter (fun tr -> not (Bitset.mem is_target tr.src))
  in
  let absorbed = make ~nb_states:t.nb_states ~initial:t.initial trimmed in
  let dist = transient ~epsilon absorbed ~horizon in
  List.fold_left (fun acc s -> acc +. dist.(s)) 0.0 targets

let throughput t ~pi ~action =
  let total = ref 0.0 in
  Array.iter
    (fun tr ->
       List.iter
         (fun a -> if a = action then total := !total +. (pi.(tr.src) *. tr.rate))
         tr.actions)
    t.transitions;
  !total

let throughputs t ~pi =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun tr ->
       List.iter
         (fun a ->
            let current = Option.value ~default:0.0 (Hashtbl.find_opt table a) in
            Hashtbl.replace table a (current +. (pi.(tr.src) *. tr.rate)))
         tr.actions)
    t.transitions;
  Hashtbl.fold (fun a v acc -> (a, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let expected_reward t ~pi reward =
  let total = ref 0.0 in
  for s = 0 to t.nb_states - 1 do
    total := !total +. (pi.(s) *. reward s)
  done;
  !total

let pp fmt t =
  Format.fprintf fmt "ctmc: %d states, %d transitions, initial %d" t.nb_states
    (nb_transitions t) t.initial
