(* The term-level interpreter that Mv_calc.State_space ran before its
   states were interned: the SOS rules over raw behaviour terms, every
   successor normalized and states compared structurally, hashed
   through their marshalled bytes. It is the oracle of the
   differential tests in test_state_space.ml; nothing in lib/ uses
   it. *)

module Ast = Mv_calc.Ast
module Expr = Mv_calc.Expr
module Ty = Mv_calc.Ty
module Value = Mv_calc.Value
open Mv_calc.Semantics

let fail msg = raise (Semantics_error msg)

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

let rec moves ?(fuel = 100) spec behavior =
  let recur = moves ~fuel spec in
  match behavior with
  | Ast.At (_, k) -> recur k
  | Ast.Stop -> []
  | Ast.Exit es ->
    let values =
      List.map
        (fun e ->
           match Expr.eval e with
           | v -> v
           | exception Expr.Eval_error msg -> fail ("exit value: " ^ msg))
        es
    in
    [ (Exit_move values, Ast.Stop) ]
  | Ast.Prefix (action, k) ->
    let alternatives = expand_offers spec.Ast.enums action.offers in
    if String.equal action.gate Ast.tau_gate then begin
      if action.offers <> [] then fail "the internal gate i takes no offers";
      [ (Tau, k) ]
    end
    else
      List.map
        (fun (values, bindings) ->
           ((Act (action.gate, values)), Ast.subst bindings k))
        alternatives
  | Ast.Rate (r, k) ->
    if r <= 0.0 then fail "rate must be positive";
    [ (Rate_move r, k) ]
  | Ast.Choice bs -> List.concat_map recur bs
  | Ast.Guard (e, k) -> (
      match Expr.eval_bool e with
      | true -> recur k
      | false -> []
      | exception Expr.Eval_error msg -> fail ("guard: " ^ msg))
  | Ast.Par (sync, x, y) ->
    let sync_gate g =
      match sync with Ast.Gates gs -> List.mem g gs | Ast.All -> true
    in
    let mx = recur x and my = recur y in
    let left =
      List.filter_map
        (fun (l, x') ->
           match l with
           | Exit_move _ -> None
           | Act (g, _) when sync_gate g -> None
           | Act _ | Tau | Rate_move _ -> Some (l, Ast.Par (sync, x', y)))
        mx
    and right =
      List.filter_map
        (fun (l, y') ->
           match l with
           | Exit_move _ -> None
           | Act (g, _) when sync_gate g -> None
           | Act _ | Tau | Rate_move _ -> Some (l, Ast.Par (sync, x, y')))
        my
    and synced =
      List.concat_map
        (fun (lx, x') ->
           List.filter_map
             (fun (ly, y') ->
                match lx, ly with
                | Exit_move vx, Exit_move vy
                  when List.length vx = List.length vy
                       && List.for_all2 Value.equal vx vy ->
                  Some (lx, Ast.Par (sync, x', y'))
                | Act (g, vs), Act (g', vs')
                  when sync_gate g && String.equal g g' && vs = vs' ->
                  Some (lx, Ast.Par (sync, x', y'))
                | (Exit_move _ | Act _ | Tau | Rate_move _), _ -> None)
             my)
        (List.filter
           (fun (l, _) ->
              match l with
              | Exit_move _ -> true
              | Act (g, _) -> sync_gate g
              | Tau | Rate_move _ -> false)
           mx)
    in
    left @ right @ synced
  | Ast.Hide (gates, k) ->
    List.map
      (fun (l, k') ->
         let l' =
           match l with
           | Act (g, _) when List.mem g gates -> Tau
           | Act _ | Tau | Exit_move _ | Rate_move _ -> l
         in
         (l', Ast.Hide (gates, k')))
      (recur k)
  | Ast.Rename (pairs, k) ->
    List.map
      (fun (l, k') ->
         let l' =
           match l with
           | Act (g, vs) -> (
               match List.assoc_opt g pairs with
               | Some g' -> Act (g', vs)
               | None -> l)
           | Tau | Exit_move _ | Rate_move _ -> l
         in
         (l', Ast.Rename (pairs, k')))
      (recur k)
  | Ast.Seq (x, accepts, y) ->
    List.map
      (fun (l, x') ->
         match l with
         | Exit_move values ->
           if List.length values <> List.length accepts then
             fail
               (Printf.sprintf
                  ">>: %d exit value(s) for %d accept binder(s)"
                  (List.length values) (List.length accepts))
           else begin
             let bindings =
               List.map2
                 (fun (name, ty) value ->
                    if not (Ty.check_value spec.Ast.enums ty value) then
                      fail
                        (Printf.sprintf "accept %s: value %s not in type" name
                           (Value.to_string value));
                    (name, value))
                 accepts values
             in
             (Tau, Ast.subst bindings y)
           end
         | Act _ | Tau | Rate_move _ -> (l, Ast.Seq (x', accepts, y)))
      (recur x)
  | Ast.Call (name, gate_args, args) ->
    if fuel <= 0 then raise (Unguarded_recursion name);
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
    moves ~fuel:(fuel - 1) spec (Ast.subst bindings body)

module Term_state = struct
  type t = Ast.behavior

  let equal = ( = )
  let hash t = Hashtbl.hash (Marshal.to_string t [ Marshal.No_sharing ])
end

module Term_explore = Mv_lts.Explore.Make (Term_state)

let successors spec behavior =
  List.map
    (fun (label, next) -> (label_string label, Ast.normalize next))
    (moves spec behavior)

(* what [State_space.generate] returned: the LTS and its state terms *)
let generate ?(max_states = 1_000_000) spec =
  let result =
    Term_explore.run ~max_states ~on_truncate:`Raise
      ~initial:(Ast.normalize spec.Ast.init)
      ~successors:(successors spec) ()
  in
  (result.Mv_lts.Explore.lts, result.Mv_lts.Explore.states)

let first_deadlock ?(max_states = 1_000_000) spec =
  let module Table = Hashtbl.Make (Term_state) in
  let seen = Table.create 1024 in
  let queue = Queue.create () in
  let initial = Ast.normalize spec.Ast.init in
  Table.replace seen initial ();
  Queue.add (initial, []) queue;
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       let term, trace_rev = Queue.pop queue in
       let moves = moves spec term in
       if moves = [] then begin
         result := Some (List.rev trace_rev);
         raise Exit
       end;
       List.iter
         (fun (label, next) ->
            let next = Ast.normalize next in
            if not (Table.mem seen next) then begin
              if Table.length seen >= max_states then
                raise (Mv_lts.Explore.Too_many_states max_states);
              Table.replace seen next ();
              Queue.add (next, label_string label :: trace_rev) queue
            end)
         moves
     done
   with Exit -> ());
  !result
