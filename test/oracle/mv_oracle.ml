(* Reference engines, kept as sequential test oracles; nothing in lib/
   uses them. The minimizers are the signature-refinement engines that
   the flat kernels of Mv_bisim and Mv_imc.Lump replaced; [Linalg] holds
   the dense LU solves of the steady-state and first-step equations
   that the Mv_kern.Solver kernels and Mv_markov.Ctmc's renewal solves
   are checked against; [Eval] is the Knaster-Tarski mu-calculus
   evaluator that Mv_mcl.Eval is checked against.

   Every engine recomputes the signature of every state each round,
   keys each state by its old block and its signature, and numbers the
   new blocks by first occurrence in state order, until the block
   count is stable. The lib/ engines promise partitions identical to
   these, block ids included. *)

module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Scc = Mv_lts.Scc
module Partition = Mv_bisim.Partition
module Imc = Mv_imc.Imc

(* Refine the trivial partition of [nb_states] states until the block
   count is stable. [signatures p] gives every state's canonical
   signature under [p]; the new block of a state is the first-occurrence
   number of its (old block, signature) key. *)
let refine ~nb_states signatures =
  let rec loop (p : Partition.t) =
    let sigs = signatures p in
    let keys = Hashtbl.create 256 in
    let block_of =
      Array.init nb_states (fun s ->
          let key = (p.block_of.(s), sigs.(s)) in
          match Hashtbl.find_opt keys key with
          | Some id -> id
          | None ->
            let id = Hashtbl.length keys in
            Hashtbl.add keys key id;
            id)
    in
    let p' = { Partition.block_of; count = Hashtbl.length keys } in
    if p'.count = p.count then p' else loop p'
  in
  loop (Partition.trivial nb_states)

(* Kanellakis-Smolka: a state's signature is its set of (label,
   successor block) pairs. *)
module Strong = struct
  let partition lts =
    refine ~nb_states:(Lts.nb_states lts) (fun (p : Partition.t) ->
        Array.init (Lts.nb_states lts) (fun s ->
            Lts.fold_out lts s (fun l d acc -> (l, p.block_of.(d)) :: acc) []
            |> List.sort_uniq compare))

  (* the union of every transition's image, where the lib/ engine
     reads one state per block *)
  let minimize lts =
    let p = partition lts in
    let transitions = ref [] in
    Lts.iter_transitions lts (fun s l d ->
        transitions := (p.block_of.(s), l, p.block_of.(d)) :: !transitions);
    Lts.restrict_reachable
      (Lts.make ~nb_states:p.count
         ~initial:p.block_of.(Lts.initial lts)
         ~labels:(Lts.labels lts) !transitions)
end

(* Blom-Orzan: a state's signature is the set of (label, block) moves
   reachable through inert taus, inert taus excluded; under divergence
   sensitivity a state that can reach a tau cycle also carries a
   marker. [minimize] is divergence-blind. *)
module Branching = struct
  (* Tau-SCC collapse: [component] maps states to Tarjan components (a
     tau edge between two components goes to the lower id), [succ.(c)]
     lists the moves of [c] minus its internal taus, and [cyclic.(c)]
     says whether [c] has an internal tau edge, i.e. a tau cycle. *)
  let collapse lts =
    let scc =
      Scc.compute ~nb_states:(Lts.nb_states lts) ~iter_succ:(fun s f ->
          Lts.iter_out lts s (fun l d -> if l = Label.tau then f d))
    in
    let component = scc.Scc.component in
    let succ = Array.make scc.Scc.count [] in
    let cyclic = Array.make scc.Scc.count false in
    Lts.iter_transitions lts (fun s l d ->
        let cs = component.(s) and cd = component.(d) in
        if l = Label.tau && cs = cd then cyclic.(cs) <- true
        else succ.(cs) <- (l, cd) :: succ.(cs));
    (component, succ, cyclic)

  let partition ?(divergence_sensitive = false) lts =
    let component, succ, cyclic = collapse lts in
    let n = Array.length succ in
    (* a component diverges when a tau path leads to a tau cycle; tau
       successors have lower ids, so one ascending pass closes it *)
    let divergent = Array.copy cyclic in
    for c = 0 to n - 1 do
      List.iter
        (fun (l, d) -> if l = Label.tau && divergent.(d) then divergent.(c) <- true)
        succ.(c)
    done;
    let signatures (p : Partition.t) =
      let sigs = Array.make n [] in
      for c = 0 to n - 1 do
        let inert (l, d) = l = Label.tau && p.block_of.(d) = p.block_of.(c) in
        let moves =
          List.concat_map
            (fun ((l, d) as move) ->
               if inert move then sigs.(d) else [ (l, p.block_of.(d)) ])
            succ.(c)
        in
        let marker =
          if divergence_sensitive && divergent.(c) then [ (-1, -1) ] else []
        in
        sigs.(c) <- List.sort_uniq compare (marker @ moves)
      done;
      sigs
    in
    let p = refine ~nb_states:n signatures in
    {
      Partition.block_of = Array.map (fun c -> p.block_of.(c)) component;
      count = p.count;
    }

  let minimize lts =
    Lts.restrict_reachable (Mv_bisim.Quotient.weak lts (partition lts))
end

(* Stochastic bisimulation: a state's signature is its (label, block)
   interactive moves plus its cumulative rate into every block, summed
   through a Hashtbl in transition order and rounded to 12 significant
   digits. *)
module Lump = struct
  let partition imc =
    let n = Imc.nb_states imc in
    refine ~nb_states:n (fun (p : Partition.t) ->
        let interactive = Array.make n [] in
        Imc.iter_interactive imc (fun s l d ->
            interactive.(s) <- (l, p.block_of.(d)) :: interactive.(s));
        let rates = Array.init n (fun _ -> Hashtbl.create 4) in
        Imc.iter_markovian imc (fun s r d ->
            let b = p.block_of.(d) in
            let sum = Option.value ~default:0.0 (Hashtbl.find_opt rates.(s) b) in
            Hashtbl.replace rates.(s) b (sum +. r));
        Array.init n (fun s ->
            ( List.sort_uniq compare interactive.(s),
              Hashtbl.fold
                (fun b r acc -> (b, Printf.sprintf "%.12e" r) :: acc)
                rates.(s) []
              |> List.sort compare )))
end

(* Dense linear algebra: Gaussian elimination with partial pivoting,
   and the stationary distribution of a small irreducible CTMC by a
   direct solve of its balance equations. *)
module Linalg = struct
  module Ctmc = Mv_markov.Ctmc

  exception Singular

  let check_shape a b =
    let n = Array.length a in
    Array.iter
      (fun row -> if Array.length row <> n then invalid_arg "Linalg.solve: shape")
      a;
    if Array.length b <> n then invalid_arg "Linalg.solve: shape"

  (* The LU factors of [a], which is not modified: row [k] of the result
     holds U on and above the diagonal and the multipliers of L below
     it, and [perm.(k)] is the row of [a] that ended up at [k]. Raises
     [Singular] when no pivot exceeds [tiny]. *)
  let factor ~tiny a =
    let n = Array.length a in
    let m = Array.map Array.copy a in
    let perm = Array.init n Fun.id in
    for col = 0 to n - 1 do
      let pivot = ref col in
      for row = col + 1 to n - 1 do
        if abs_float m.(row).(col) > abs_float m.(!pivot).(col) then pivot := row
      done;
      if not (abs_float m.(!pivot).(col) > tiny) then raise Singular;
      if !pivot <> col then begin
        let tmp = m.(col) in
        m.(col) <- m.(!pivot);
        m.(!pivot) <- tmp;
        let tp = perm.(col) in
        perm.(col) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      for row = col + 1 to n - 1 do
        let factor = m.(row).(col) /. m.(col).(col) in
        m.(row).(col) <- factor;
        if factor <> 0.0 then
          for k = col + 1 to n - 1 do
            m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
          done
      done
    done;
    (m, perm)

  let substitute (m, perm) b =
    let n = Array.length m in
    let x = Array.map (fun p -> b.(p)) perm in
    for row = 1 to n - 1 do
      for k = 0 to row - 1 do
        x.(row) <- x.(row) -. (m.(row).(k) *. x.(k))
      done
    done;
    for row = n - 1 downto 0 do
      for k = row + 1 to n - 1 do
        x.(row) <- x.(row) -. (m.(row).(k) *. x.(k))
      done;
      x.(row) <- x.(row) /. m.(row).(row)
    done;
    x

  (* [solve a b] solves [a x = b]; [a] is square, row-major and not
     modified. Raises [Singular] when no pivot exceeds 1e-12. *)
  let solve a b =
    check_shape a b;
    if Array.length a = 0 then [||] else substitute (factor ~tiny:1e-12 a) b

  (* Sums carried as an unevaluated pair [hi + lo] (Knuth's two-sum and
     an fma product), about twice the precision of a float. *)
  let add_exact (hi, lo) x =
    let s = hi +. x in
    let b = s -. hi in
    (s, lo +. ((hi -. (s -. b)) +. (x -. b)))

  let add_product acc a b =
    let p = a *. b in
    let hi, lo = add_exact acc p in
    (hi, lo +. Float.fma a b (-.p))

  (* Raises [Invalid_argument] when the chain is reducible or has more
     than 2,000 states. The rows of the system are the columns of the
     generator (pi Q = 0 transposed), the last one replaced by
     sum(pi) = 1, and its unknowns are pi_i * E_i (E the exit rates):
     scaled so, every column but the last entry is a jump probability
     and the diagonal is -1. Near-decomposable chains still make it
     ill-conditioned (condition numbers near 1e13 occur with rates over
     1e-6..1e3), so the LU solution is refined: each round solves for
     the correction against the residual [b - A x], computed in double
     the float precision from the transitions themselves (an outflow as
     the rate times the state's probability, never through a rounded
     diagonal). *)
  let steady_state_exact ctmc =
    let n = Ctmc.nb_states ctmc in
    if n > 2_000 then invalid_arg "Linalg.steady_state_exact: too large";
    (match Ctmc.bsccs ctmc with
     | [ single ] when List.length single = n -> ()
     | _ -> invalid_arg "Linalg.steady_state_exact: chain is not irreducible");
    let exit = Ctmc.exit_rates ctmc in
    let a = Array.make_matrix n n 0.0 in
    Ctmc.iter_transitions ctmc (fun tr ->
        let s = tr.Ctmc.src and d = tr.Ctmc.dst in
        if s <> d then begin
          a.(d).(s) <- a.(d).(s) +. (tr.Ctmc.rate /. exit.(s));
          a.(s).(s) <- -1.0
        end);
    for col = 0 to n - 1 do
      a.(n - 1).(col) <- 1.0 /. exit.(col)
    done;
    (* the system is regular for an irreducible chain, however small
       its pivots get *)
    let lu = factor ~tiny:0.0 a in
    let unscale y = Array.mapi (fun i yi -> yi /. exit.(i)) y in
    let b = Array.make n 0.0 in
    b.(n - 1) <- 1.0;
    let x = unscale (substitute lu b) in
    let residual () =
      let r = Array.make n (0.0, 0.0) in
      Ctmc.iter_transitions ctmc (fun tr ->
          let s = tr.Ctmc.src and d = tr.Ctmc.dst in
          if s <> d then begin
            r.(s) <- add_product r.(s) tr.Ctmc.rate x.(s);
            r.(d) <- add_product r.(d) (-.tr.Ctmc.rate) x.(s)
          end);
      r.(n - 1) <- Array.fold_left (fun acc v -> add_exact acc (-.v)) (1.0, 0.0) x;
      Array.map (fun (hi, lo) -> hi +. lo) r
    in
    (* each round shrinks the error by about cond(A) * epsilon; stop
       once the correction is at rounding level or stops shrinking *)
    let last = ref infinity and rounds = ref 0 in
    while !last > epsilon_float && !rounds < 100 do
      let d = unscale (substitute lu (residual ())) in
      Array.iteri (fun j dj -> x.(j) <- x.(j) +. dj) d;
      let size = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0.0 d in
      last := if size < 0.5 *. !last then size else 0.0;
      incr rounds
    done;
    x

  (* The first-step equations over the states where [unknown] holds,
     [sum_d q_sd (x_d - x_s) + reward s = 0], every other state's [x_d]
     fixed to [known d]; [reward] and [known] must be nonnegative, and
     every unknown state must leave the unknown set with positive
     probability. The matrix [diag(E) - Q] on the unknown states is an
     M-matrix, which is eliminated in state order without pivoting,
     with every off-diagonal rate kept as a positive number and every
     diagonal entry rebuilt as its row's rate out of the remaining
     unknowns (the row sum, updated by additions) plus its off-diagonal
     rates. No step then subtracts, so the solution is accurate entry
     by entry however ill-conditioned the system is: with rates over
     1e-6..1e3, partial-pivoting LU refined like [steady_state_exact]
     missed passage times near 1e19 by a factor of 1.6 and returned
     negative ones. *)
  let first_step_exact ctmc ~unknown ~known ~reward =
    let n = Ctmc.nb_states ctmc in
    let states = Array.of_list (List.filter unknown (List.init n Fun.id)) in
    let m = Array.length states in
    let index = Array.make n (-1) in
    Array.iteri (fun i s -> index.(s) <- i) states;
    (* c.(i).(j): the rate from i to j; slack.(i): the rate from i out
       of the remaining unknowns *)
    let c = Array.make_matrix m m 0.0 and slack = Array.make m 0.0 in
    let b = Array.map reward states in
    Ctmc.iter_transitions ctmc (fun tr ->
        let s = tr.Ctmc.src and d = tr.Ctmc.dst in
        let i = index.(s) in
        if s <> d && i >= 0 then
          if index.(d) >= 0 then
            c.(i).(index.(d)) <- c.(i).(index.(d)) +. tr.Ctmc.rate
          else begin
            slack.(i) <- slack.(i) +. tr.Ctmc.rate;
            b.(i) <- b.(i) +. (tr.Ctmc.rate *. known d)
          end);
    let pivot = Array.make m 0.0 in
    for k = 0 to m - 1 do
      let p = ref slack.(k) in
      for j = k + 1 to m - 1 do
        p := !p +. c.(k).(j)
      done;
      pivot.(k) <- !p;
      for i = k + 1 to m - 1 do
        let f = c.(i).(k) /. !p in
        if f > 0.0 then begin
          for j = k + 1 to m - 1 do
            if j <> i then c.(i).(j) <- c.(i).(j) +. (f *. c.(k).(j))
          done;
          slack.(i) <- slack.(i) +. (f *. slack.(k));
          b.(i) <- b.(i) +. (f *. b.(k))
        end
      done
    done;
    let x = Array.init n (fun s -> if index.(s) >= 0 then 0.0 else known s) in
    for k = m - 1 downto 0 do
      let acc = ref b.(k) in
      for j = k + 1 to m - 1 do
        acc := !acc +. (c.(k).(j) *. x.(states.(j)))
      done;
      x.(states.(k)) <- !acc /. pivot.(k)
    done;
    x

  (* States from which every run reaches [targets] almost surely: the
     non-target states that can reach a target and cannot reach,
     avoiding targets, a state that cannot. *)
  let almost_surely ctmc ~targets =
    let n = Ctmc.nb_states ctmc in
    let target = Array.make n false in
    List.iter (fun s -> target.(s) <- true) targets;
    let preds = Array.make n [] in
    Ctmc.iter_transitions ctmc (fun tr ->
        if tr.Ctmc.src <> tr.Ctmc.dst then
          preds.(tr.Ctmc.dst) <- tr.Ctmc.src :: preds.(tr.Ctmc.dst));
    (* backward closure from [seeds], through non-target states *)
    let backward seeds =
      let seen = Array.make n false in
      let rec visit s =
        if not seen.(s) then begin
          seen.(s) <- true;
          List.iter (fun p -> if not target.(p) then visit p) preds.(s)
        end
      in
      List.iter visit seeds;
      seen
    in
    let reaches = backward targets in
    let lost = List.filter (fun s -> not reaches.(s)) (List.init n Fun.id) in
    let trapped = backward lost in
    fun s -> (not target.(s)) && reaches.(s) && not trapped.(s)

  (* The expected reward accumulated from the initial state until
     first entering [targets]. *)
  let passage_exact ctmc ~reward ~targets =
    let s0 = Ctmc.initial ctmc in
    let unknown = almost_surely ctmc ~targets in
    if List.mem s0 targets then 0.0
    else if not (unknown s0) then infinity
    else (first_step_exact ctmc ~unknown ~known:(fun _ -> 0.0) ~reward).(s0)

  (* The probability of entering each of [classes] (disjoint state
     lists that the chain enters almost surely) first, from the initial
     state. *)
  let absorption_exact ctmc classes =
    let s0 = Ctmc.initial ctmc in
    let outside s = not (List.exists (List.mem s) classes) in
    List.map
      (fun members ->
         if List.mem s0 members then 1.0
         else if not (outside s0) then 0.0
         else
           (first_step_exact ctmc ~unknown:outside
              ~known:(fun d -> if List.mem d members then 1.0 else 0.0)
              ~reward:(fun _ -> 0.0)).(s0))
      classes
end

(* Knaster-Tarski evaluation of alternation-free mu-calculus formulas:
   every fixpoint is iterated to stability on dense bitsets, and nested
   fixpoints are recomputed under each environment. This was
   Mv_mcl.Eval before the linear-time propagation replaced it, and the
   tests check that solver against it. *)
module Eval = struct
  module Bitset = Mv_util.Bitset
  module Formula = Mv_mcl.Formula
  module Action_formula = Mv_mcl.Action_formula

  (* The modalities iterate over all transitions once per call; the
     per-formula compiled action sets make the label test O(1). *)

  let diamond lts action_set target =
    let n = Lts.nb_states lts in
    let result = Bitset.create n in
    Lts.iter_transitions lts (fun src label dst ->
        if Bitset.mem action_set label && Bitset.mem target dst then
          Bitset.add result src);
    result

  let box lts action_set target =
    (* s satisfies [alpha]phi iff no alpha-move leaves phi *)
    let n = Lts.nb_states lts in
    let violating = Bitset.create n in
    Lts.iter_transitions lts (fun src label dst ->
        if Bitset.mem action_set label && not (Bitset.mem target dst) then
          Bitset.add violating src);
    Bitset.complement violating;
    violating

  let sat lts formula =
    Formula.check formula;
    let n = Lts.nb_states lts in
    let compiled = Hashtbl.create 16 in
    let action_set alpha =
      match Hashtbl.find_opt compiled alpha with
      | Some set -> set
      | None ->
        let set = Action_formula.compile lts alpha in
        Hashtbl.replace compiled alpha set;
        set
    in
    let rec eval env formula =
      match formula with
      | Formula.True -> Bitset.full n
      | Formula.False -> Bitset.create n
      | Formula.Var x -> (
          match List.assoc_opt x env with
          | Some set -> Bitset.copy set
          | None -> assert false (* ruled out by Formula.check *))
      | Formula.Not inner ->
        let set = eval env inner in
        Bitset.complement set;
        set
      | Formula.And (a, b) ->
        let sa = eval env a in
        Bitset.inter_into ~into:sa (eval env b);
        sa
      | Formula.Or (a, b) ->
        let sa = eval env a in
        Bitset.union_into ~into:sa (eval env b);
        sa
      | Formula.Implies (a, b) ->
        let sa = eval env a in
        Bitset.complement sa;
        Bitset.union_into ~into:sa (eval env b);
        sa
      | Formula.Diamond (alpha, inner) ->
        diamond lts (action_set alpha) (eval env inner)
      | Formula.Box (alpha, inner) -> box lts (action_set alpha) (eval env inner)
      | Formula.Mu (x, inner) -> fixpoint env x inner (Bitset.create n)
      | Formula.Nu (x, inner) -> fixpoint env x inner (Bitset.full n)
    and fixpoint env x inner start =
      let current = ref start in
      let stable = ref false in
      while not !stable do
        let next = eval ((x, !current) :: env) inner in
        if Bitset.equal next !current then stable := true else current := next
      done;
      !current
    in
    eval [] formula

  let holds lts formula = Bitset.mem (sat lts formula) (Lts.initial lts)

  let witnesses lts formula ~limit =
    let set = sat lts formula in
    let out = ref [] in
    let count = ref 0 in
    (try
       Bitset.iter
         (fun s ->
            if !count >= limit then raise Exit;
            incr count;
            out := s :: !out)
         set
     with Exit -> ());
    List.rev !out
end
