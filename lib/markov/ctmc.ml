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

(* The local system of [subset]: its states renumbered into a
   contiguous [0 .. size-1], [roots] first in list order and then in
   BFS order from them (following moves inside the subset), which keeps
   the incoming-CSR accesses of neighbouring states close together and
   the generator's band narrow, with the moves inside the subset as
   incoming CSR and their summed rates as exit rates. [glob.(j)] is the
   global id of local state [j]. States the BFS does not reach (a
   subset that is not strongly connected) follow in list order. The
   first [border] roots are the system's dense border columns. The
   steady-state, renewal and transient solves all run on this
   system. *)
let local_system ?(border = 0) t ~roots subset =
  let member = Bitset.of_list t.nb_states subset in
  let size = List.length subset in
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
  List.iter visit roots;
  let head = ref 0 in
  while !head < !visited do
    let s = glob.(!head) in
    incr head;
    iter_out t s (fun tr ->
        if tr.dst <> tr.src && Bitset.mem member tr.dst then visit tr.dst)
  done;
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
  (glob, { Solver.size; border; in_row; in_src; in_rate; exit })

(* The stationary vector of a local system by Mv_kern.Solver.run, which
   eliminates narrow systems and sweeps the others unless [method_]
   forces the sweeps, scattered back to the [nb_states] global ids. *)
let solve_local ?method_ ~tolerance ~max_iterations ~nb_states (glob, sys) =
  let local = Array.make sys.Solver.size (1.0 /. float_of_int sys.size) in
  let outcome =
    Solver.run
      (Solver.config ?method_ ~tolerance ~max_sweeps:max_iterations ())
      sys local
  in
  let pi = Array.make nb_states 0.0 in
  Array.iteri (fun j s -> pi.(s) <- local.(j)) glob;
  ( pi,
    Solver_stats.
      {
        iterations = outcome.Solver.sweeps;
        residual = outcome.Solver.residual;
        converged = outcome.Solver.converged;
      } )

(* Stationary solve restricted to an irreducible subset,
   pi_j = (sum_{i in subset, i<>j} pi_i q_ij) / E_j, in BFS order from
   its first state. *)
let steady_state_on_subset t ?method_ ~tolerance ~max_iterations subset =
  match subset with
  | [] -> invalid_arg "Ctmc.steady_state_on_subset: empty"
  | [ s ] ->
    let pi = Array.make t.nb_states 0.0 in
    pi.(s) <- 1.0;
    (pi, Solver_stats.exact)
  | first :: _ ->
    solve_local ?method_ ~tolerance ~max_iterations ~nb_states:t.nb_states
      (local_system t ~roots:[ first ] subset)

(* The renewal chain of [classes] (disjoint lists of states not holding
   the initial state): every move into class [c] goes instead to a
   fresh node [n + c], which returns to the initial state at rate 1,
   and moves out of class states are dropped. Each cycle of this chain
   is one run from the initial state to its first entry into a class,
   plus one time unit at that class's node. Returns its stationary
   vector on the BSCC that holds the initial state, or [None] when that
   BSCC holds no node (from the initial state some run never enters a
   class). By renewal-reward, node [c]'s share of the node mass is the
   probability of entering [c] first, and [sum_s pi_s r(s) / pi_nodes]
   is the reward [r] accumulated before the first entry. The nodes come
   first in the local order, as the system's border: every state that
   enters a class feeds a node, wherever it lies in the BFS order, so a
   node's column is kept dense and the band stays the chain's own. *)
let renewal ?method_ ~tolerance ~max_iterations t classes =
  let n = t.nb_states in
  let class_of = Array.make n (-1) in
  List.iteri (fun c members -> List.iter (fun s -> class_of.(s) <- c) members)
    classes;
  let moves = ref [] in
  for i = Array.length t.transitions - 1 downto 0 do
    let tr = t.transitions.(i) in
    if class_of.(tr.src) < 0 && tr.src <> tr.dst then
      let dst = if class_of.(tr.dst) < 0 then tr.dst else n + class_of.(tr.dst) in
      moves := { tr with dst } :: !moves
  done;
  let returns =
    List.mapi
      (fun c _ -> { src = n + c; rate = 1.0; actions = []; dst = t.initial })
      classes
  in
  let chain =
    make ~nb_states:(n + List.length classes) ~initial:t.initial
      (!moves @ returns)
  in
  match List.find_opt (List.mem t.initial) (bsccs chain) with
  | Some members when List.exists (fun s -> s >= n) members ->
    let nodes = List.filter (fun s -> s >= n) members in
    Some
      (solve_local ?method_ ~tolerance ~max_iterations
         ~nb_states:chain.nb_states
         (local_system chain ~border:(List.length nodes)
            ~roots:(nodes @ [ t.initial ]) members))
  | _ -> None

let steady_state_stats ?method_ ?(tolerance = 1e-13) ?(max_iterations = 200_000)
    t =
  Obs.span "ctmc.steady_state" @@ fun () ->
  let bottom = bsccs t in
  (* with one BSCC, or a recurrent initial state, one BSCC is the
     whole answer *)
  let only =
    match bottom with
    | [ single ] -> Some single
    | _ -> List.find_opt (List.mem t.initial) bottom
  in
  match only with
  | Some members ->
    steady_state_on_subset t ?method_ ~tolerance ~max_iterations members
  | None ->
    (* a finite chain enters some BSCC with probability 1, so the
       renewal chain's BSCC holds the initial state and a node *)
    let n = t.nb_states in
    let visits, renewal_stats =
      Option.get (renewal ?method_ ~tolerance ~max_iterations t bottom)
    in
    let node_mass = ref 0.0 in
    List.iteri (fun c _ -> node_mass := !node_mass +. visits.(n + c)) bottom;
    let pi = Array.make n 0.0 in
    let stats = ref renewal_stats in
    List.iteri
      (fun c members ->
         let alpha = visits.(n + c) /. !node_mass in
         if alpha > 0.0 then begin
           let local, local_stats =
             steady_state_on_subset t ?method_ ~tolerance ~max_iterations
               members
           in
           stats := Solver_stats.combine !stats local_stats;
           List.iter (fun s -> pi.(s) <- pi.(s) +. (alpha *. local.(s))) members
         end)
      bottom;
    (pi, !stats)

let steady_state ?method_ ?tolerance ?max_iterations t =
  fst (steady_state_stats ?method_ ?tolerance ?max_iterations t)

(* Uniformization: [p_{k+1} = p_k (I + Q / lambda)], where each step
   sums every state's stay term and inflow over the local system's
   incoming CSR. *)
let transient ?(epsilon = 1e-10) t ~horizon =
  if horizon < 0.0 then invalid_arg "Ctmc.transient: negative horizon";
  let n = t.nb_states in
  let point = Array.make n 0.0 in
  point.(t.initial) <- 1.0;
  (* BFS from the initial state: it is local state 0 *)
  let glob, sys =
    local_system t ~roots:[ t.initial ] (List.init n Fun.id)
  in
  let max_rate = Array.fold_left max 0.0 sys.exit in
  if max_rate = 0.0 || horizon = 0.0 then point
  else begin
    let lambda = max_rate *. 1.02 in
    let jump = Array.map (fun rate -> rate /. lambda) sys.in_rate in
    let stay = Array.map (fun rate -> 1.0 -. (rate /. lambda)) sys.exit in
    let weights = Poisson.weights ~q:(lambda *. horizon) ~epsilon in
    let current = ref (Array.make n 0.0) in
    let next = ref (Array.make n 0.0) in
    !current.(0) <- 1.0;
    let result = Array.make n 0.0 in
    for k = 0 to weights.right do
      if k >= weights.left then begin
        let w = weights.weights.(k - weights.left) in
        Array.iteri (fun j v -> result.(j) <- result.(j) +. (w *. v)) !current
      end;
      if k < weights.right then begin
        let p = !current and q = !next in
        for j = 0 to n - 1 do
          let acc = ref (stay.(j) *. p.(j)) in
          for e = sys.in_row.(j) to sys.in_row.(j + 1) - 1 do
            acc := !acc +. (p.(sys.in_src.(e)) *. jump.(e))
          done;
          q.(j) <- !acc
        done;
        current := q;
        next := p
      end
    done;
    let dist = Array.make n 0.0 in
    Array.iteri (fun j s -> dist.(s) <- result.(j)) glob;
    dist
  end

let accumulated_reward ?(tolerance = 1e-13) ?(max_iterations = 200_000) t
    ~reward ~targets =
  if List.mem t.initial targets then (0.0, Solver_stats.exact)
  else
    match renewal ~tolerance ~max_iterations t [ targets ] with
    | None -> (infinity, Solver_stats.exact)
    | Some (visits, stats) ->
      let n = t.nb_states in
      let total = ref 0.0 in
      for s = 0 to n - 1 do
        if visits.(s) > 0.0 then total := !total +. (visits.(s) *. reward s)
      done;
      (!total /. visits.(n), stats)

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
