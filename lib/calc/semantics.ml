type move_label =
  | Tau
  | Exit_move of Value.t list
  | Rate_move of float
  | Act of string * string list

exception Semantics_error of string
exception Unguarded_recursion of string

let fail msg = raise (Semantics_error msg)

let label_string = function
  | Tau -> "i"
  | Exit_move [] -> Ast.exit_label
  | Exit_move values ->
    Ast.exit_label ^ " !" ^ String.concat " !" (List.map Value.to_string values)
  | Rate_move r -> Printf.sprintf "rate %.12g" r
  | Act (gate, []) -> gate
  | Act (gate, values) -> gate ^ " !" ^ String.concat " !" values

(* Expand the offers of an action into ground alternatives: each
   alternative carries the printed values and the receive bindings. *)
let expand_offers enums offers =
  let expand_one (values, bindings) = function
    | Ast.Send e -> (
        let e = Expr.subst bindings e in
        match Expr.eval e with
        | v -> [ (Value.to_string v :: values, bindings) ]
        | exception Expr.Eval_error msg -> fail ("offer: " ^ msg))
    | Ast.Receive (x, ty) ->
      List.map
        (fun v -> (Value.to_string v :: values, (x, v) :: bindings))
        (Ty.domain enums ty)
  in
  let alternatives =
    List.fold_left
      (fun acc offer -> List.concat_map (fun alt -> expand_one alt offer) acc)
      [ ([], []) ]
      offers
  in
  List.map (fun (values, bindings) -> (List.rev values, bindings)) alternatives

(* ------------------------------------------------------------------ *)
(* Interned terms

   A term is a normalized behaviour whose children are terms of the
   same table, so two terms of one table are structurally equal iff
   they are physically equal: interning a node only compares its own
   payload and the identity of its children, and its hash is computed
   once, from the children's hashes. A term caches its outgoing moves
   once a composite term above it asks for them, so a composite term's
   moves are assembled from its components' cached lists — only the
   component that moved is ever derived again. *)

type term = {
  shape : shape;
  hash : int;
  behavior : Ast.behavior; (* the normalized behaviour [shape] stands for *)
  mutable explored : explored;
}

and shape =
  | Stop
  | Exit of Expr.t list
  | Prefix of Ast.action * term
  | Rate of float * term
  | Choice of term list
  | Guard of Expr.t * term
  | Par of Ast.sync * term * term
  | Hide of string list * term
  | Rename of (string * string) list * term
  | Seq of term * (string * Ty.t) list * term
  | Call of string * string list * Expr.t list

(* [depth] is how many nested process calls deriving [moves] unfolded:
   the moves hold under any fuel >= depth. *)
and explored = { depth : int; moves : move list }

and move = { label : move_label; name : string; target : term }

(* Payloads mostly come from the same parent term, so a pointer test
   settles them before the structural comparison *)
let same x y = x == y || x = y

let same_shape a b =
  match a, b with
  | Stop, Stop -> true
  | Exit es, Exit es' -> same es es'
  | Prefix (a, k), Prefix (a', k') -> k == k' && same a a'
  | Rate (r, k), Rate (r', k') -> k == k' && r = r'
  | Choice bs, Choice bs' -> List.equal ( == ) bs bs'
  | Guard (e, k), Guard (e', k') -> k == k' && same e e'
  | Par (s, x, y), Par (s', x', y') -> x == x' && y == y' && same s s'
  | Hide (gs, k), Hide (gs', k') -> k == k' && same gs gs'
  | Rename (ps, k), Rename (ps', k') -> k == k' && same ps ps'
  | Seq (x, acc, y), Seq (x', acc', y') -> x == x' && y == y' && same acc acc'
  | Call (p, gs, args), Call (p', gs', args') ->
    String.equal p p' && same gs gs' && same args args'
  | ( ( Stop | Exit _ | Prefix _ | Rate _ | Choice _ | Guard _ | Par _
      | Hide _ | Rename _ | Seq _ | Call _ ),
      _ ) ->
    false

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

(* [Hashtbl.hash] looks at a bounded prefix of a value; hashing list
   elements one by one keeps long argument lists apart *)
let mix_list h xs = List.fold_left (fun h x -> mix h (Hashtbl.hash x)) h xs

(* The hash of an operator node is its payload's, mixed with its
   children's; [derive] computes the payload part once per parent. *)
let par_seed s = mix 7 (Hashtbl.hash s)
let hide_seed gs = mix_list 8 gs
let rename_seed ps = mix_list 9 ps
let seq_seed acc = mix_list 10 acc

let hash_shape = function
  | Stop -> 1
  | Exit es -> mix_list 2 es
  | Prefix (a, k) -> mix (mix_list (mix 3 (Hashtbl.hash a.Ast.gate)) a.offers) k.hash
  | Rate (r, k) -> mix (mix 4 (Hashtbl.hash r)) k.hash
  | Choice bs -> List.fold_left (fun h b -> mix h b.hash) 5 bs
  | Guard (e, k) -> mix (mix 6 (Hashtbl.hash e)) k.hash
  | Par (s, x, y) -> mix (mix (par_seed s) x.hash) y.hash
  | Hide (gs, k) -> mix (hide_seed gs) k.hash
  | Rename (ps, k) -> mix (rename_seed ps) k.hash
  | Seq (x, acc, y) -> mix (mix (seq_seed acc) x.hash) y.hash
  | Call (p, gs, args) -> mix_list (mix_list (mix 11 (Hashtbl.hash p)) gs) args

module Hashed = struct
  type t = term

  let equal a b = a.hash = b.hash && same_shape a.shape b.shape
  let hash t = t.hash
end

module Terms = Hashtbl.Make (Hashed)

type table = { spec : Ast.spec; terms : term Terms.t; stop : term }

(* the entry of a term whose moves were never derived *)
let unexplored = { depth = -1; moves = [] }

let intern_hashed terms hash shape behavior =
  let t = { shape; hash; behavior; explored = unexplored } in
  match Terms.find_opt terms t with
  | Some canonical -> canonical
  | None ->
    Terms.add terms t t;
    t

let intern_shape terms shape behavior =
  intern_hashed terms (hash_shape shape) shape behavior

let table ?(expect = 1024) spec =
  let terms = Terms.create (max 16 expect) in
  { spec; terms; stop = intern_shape terms Stop Ast.Stop }

let hash t = t.hash
let behavior t = t.behavior

(* [b] is normalized, hence free of [At] nodes *)
let rec of_normal table b =
  let sub = of_normal table in
  let shape =
    match b with
    | Ast.Stop -> Stop
    | Ast.Exit es -> Exit es
    | Ast.Prefix (a, k) -> Prefix (a, sub k)
    | Ast.Rate (r, k) -> Rate (r, sub k)
    | Ast.Choice bs -> Choice (List.map sub bs)
    | Ast.Guard (e, k) -> Guard (e, sub k)
    | Ast.Par (s, x, y) -> Par (s, sub x, sub y)
    | Ast.Hide (gs, k) -> Hide (gs, sub k)
    | Ast.Rename (ps, k) -> Rename (ps, sub k)
    | Ast.Seq (x, acc, y) -> Seq (sub x, acc, sub y)
    | Ast.Call (p, gs, args) -> Call (p, gs, args)
    | Ast.At _ -> assert false
  in
  intern_shape table.terms shape b

let intern table b = of_normal table (Ast.normalize b)

(* the continuation [k] with data variables bound: a fresh term unless
   nothing was bound *)
let bind table bindings k =
  if bindings = [] then k
  else intern table (Ast.subst bindings k.behavior)

let rec mem_gate g = function
  | [] -> false
  | h :: rest -> String.equal g h || mem_gate g rest

let tau_move target = { label = Tau; name = label_string Tau; target }

let leaf moves = { depth = 0; moves }

(* ------------------------------------------------------------------ *)
(* The SOS rules *)

(* a cached entry deeper than [fuel] is derived again, so that the
   unfolding that runs out of fuel raises exactly where it would on a
   term never seen before *)
let valid ~fuel e = e.depth >= 0 && e.depth <= fuel

let rec explore table ~fuel t =
  let e = t.explored in
  if valid ~fuel e then e
  else begin
    let e = derive table ~fuel t in
    t.explored <- e;
    e
  end

and derive table ~fuel t =
  let recur = explore table ~fuel in
  let make hash shape behavior = intern_hashed table.terms hash shape behavior in
  match t.shape with
  | Stop -> leaf []
  | Exit es ->
    let values =
      List.map
        (fun e ->
           match Expr.eval e with
           | v -> v
           | exception Expr.Eval_error msg -> fail ("exit value: " ^ msg))
        es
    in
    let label = Exit_move values in
    leaf [ { label; name = label_string label; target = table.stop } ]
  | Prefix (action, k) ->
    let alternatives = expand_offers table.spec.Ast.enums action.offers in
    if String.equal action.gate Ast.tau_gate then begin
      if action.offers <> [] then fail "the internal gate i takes no offers";
      leaf [ tau_move k ]
    end
    else
      leaf
        (List.map
           (fun (values, bindings) ->
              let label = Act (action.gate, values) in
              { label; name = label_string label; target = bind table bindings k })
           alternatives)
  | Rate (r, k) ->
    if r <= 0.0 then fail "rate must be positive";
    let label = Rate_move r in
    leaf [ { label; name = label_string label; target = k } ]
  | Choice bs ->
    let depth, rev_moves =
      List.fold_left
        (fun (depth, acc) b ->
           let e = recur b in
           (max depth e.depth, List.rev_append e.moves acc))
        (0, []) bs
    in
    { depth; moves = List.rev rev_moves }
  | Guard (e, k) -> (
      match Expr.eval_bool e with
      | true -> recur k
      | false -> leaf []
      | exception Expr.Eval_error msg -> fail ("guard: " ^ msg))
  | Par (sync, x, y) ->
    let ex = recur x in
    let ey = recur y in
    let sync_gate g =
      match sync with Ast.Gates gs -> mem_gate g gs | Ast.All -> true
    in
    let synchronizes m =
      match m.label with
      | Exit_move _ -> true
      | Act (g, _) -> sync_gate g
      | Tau | Rate_move _ -> false
    in
    let seed = par_seed sync in
    let par x y =
      make (mix (mix seed x.hash) y.hash) (Par (sync, x, y))
        (Ast.Par (sync, x.behavior, y.behavior))
    in
    let left =
      List.filter_map
        (fun m -> if synchronizes m then None else Some { m with target = par m.target y })
        ex.moves
    and right =
      List.filter_map
        (fun m -> if synchronizes m then None else Some { m with target = par x m.target })
        ey.moves
    and synced =
      List.concat_map
        (fun mx ->
           List.filter_map
             (fun my ->
                match mx.label, my.label with
                | Exit_move vx, Exit_move vy
                  when List.length vx = List.length vy
                       && List.for_all2 Value.equal vx vy ->
                  Some { mx with target = par mx.target my.target }
                | Act (g, vs), Act (g', vs') when String.equal g g' && vs = vs' ->
                  Some { mx with target = par mx.target my.target }
                | (Exit_move _ | Act _ | Tau | Rate_move _), _ -> None)
             ey.moves)
        (List.filter synchronizes ex.moves)
    in
    { depth = max ex.depth ey.depth; moves = left @ right @ synced }
  | Hide (gates, k) ->
    let e = recur k in
    let seed = hide_seed gates in
    let moves =
      List.map
        (fun m ->
           let target =
             make (mix seed m.target.hash) (Hide (gates, m.target))
               (Ast.Hide (gates, m.target.behavior))
           in
           match m.label with
           | Act (g, _) when List.mem g gates -> tau_move target
           | Act _ | Tau | Exit_move _ | Rate_move _ -> { m with target })
        e.moves
    in
    { e with moves }
  | Rename (pairs, k) ->
    let e = recur k in
    let seed = rename_seed pairs in
    let moves =
      List.map
        (fun m ->
           let target =
             make (mix seed m.target.hash) (Rename (pairs, m.target))
               (Ast.Rename (pairs, m.target.behavior))
           in
           match m.label with
           | Act (g, vs) -> (
               match List.assoc_opt g pairs with
               | Some g' ->
                 let label = Act (g', vs) in
                 { label; name = label_string label; target }
               | None -> { m with target })
           | Tau | Exit_move _ | Rate_move _ -> { m with target })
        e.moves
    in
    { e with moves }
  | Seq (x, accepts, y) ->
    let e = recur x in
    let seed = seq_seed accepts in
    let moves =
      List.map
        (fun m ->
           match m.label with
           | Exit_move values ->
             if List.length values <> List.length accepts then
               fail
                 (Printf.sprintf ">>: %d exit value(s) for %d accept binder(s)"
                    (List.length values) (List.length accepts))
             else begin
               let bindings =
                 List.map2
                   (fun (name, ty) value ->
                      if not (Ty.check_value table.spec.Ast.enums ty value) then
                        fail
                          (Printf.sprintf "accept %s: value %s not in type" name
                             (Value.to_string value));
                      (name, value))
                   accepts values
               in
               tau_move (bind table bindings y)
             end
           | Act _ | Tau | Rate_move _ ->
             let target =
               make
                 (mix (mix seed m.target.hash) y.hash)
                 (Seq (m.target, accepts, y))
                 (Ast.Seq (m.target.behavior, accepts, y.behavior))
             in
             { m with target })
        e.moves
    in
    { e with moves }
  | Call (name, gate_args, args) ->
    if fuel <= 0 then raise (Unguarded_recursion name);
    let spec = table.spec in
    let proc =
      match Ast.find_process spec name with
      | Some p -> p
      | None -> fail ("unknown process " ^ name)
    in
    if List.length proc.gates <> List.length gate_args then
      fail
        (Printf.sprintf "process %s expects %d gate argument(s), got %d" name
           (List.length proc.gates) (List.length gate_args));
    if List.length proc.params <> List.length args then
      fail
        (Printf.sprintf "process %s expects %d argument(s), got %d" name
           (List.length proc.params) (List.length args));
    let bindings =
      List.map2
        (fun (param, ty) arg ->
           match Expr.eval arg with
           | v ->
             if not (Ty.check_value spec.enums ty v) then
               fail
                 (Printf.sprintf "argument %s of %s: value %s not in type" param
                    name (Value.to_string v));
             (param, v)
           | exception Expr.Eval_error msg ->
             fail (Printf.sprintf "argument %s of %s: %s" param name msg))
        proc.params args
    in
    let body =
      if proc.gates = [] then proc.body
      else Ast.subst_gates (List.combine proc.gates gate_args) proc.body
    in
    let e = explore table ~fuel:(fuel - 1) (intern table (Ast.subst bindings body)) in
    { e with depth = e.depth + 1 }

(* A state is expanded once, so its own moves are not kept: only those
   of its components, which other states share. *)
let successors ?(fuel = 100) table t =
  let e = t.explored in
  (if valid ~fuel e then e else derive table ~fuel t).moves

let moves ?(fuel = 100) spec behavior =
  let table = table spec in
  List.map
    (fun m -> (m.label, m.target.behavior))
    (successors ~fuel table (intern table behavior))
