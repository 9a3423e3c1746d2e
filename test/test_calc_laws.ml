(* Algebraic laws of the MVL calculus, checked on randomly generated
   behaviour terms: the parallel operators are commutative and
   associative modulo strong bisimulation, choice is commutative and
   absorbs stop, hiding is idempotent, normalization is idempotent,
   and printing followed by parsing is the identity. *)

module Ast = Mv_calc.Ast
module Parser = Mv_calc.Parser
module State_space = Mv_calc.State_space
module Strong = Mv_bisim.Strong

let gates = [ "a"; "b"; "c" ]

(* [terms ~rich vars depth] generates behaviours over the gates a, b, c
   whose free data variables are among [vars]. Without [rich] they are
   closed, guarded and recursion-free (finite by construction): the
   terms the laws below quantify over. [rich] adds renaming, rate
   prefixes, receive offers, exit values with [accept], and calls of
   the processes of {!spec_gen} with int and gate arguments. *)
let rec terms ~rich vars depth =
  let open QCheck2.Gen in
  let gate = oneofl gates in
  let value =
    if vars = [] then map Ast.vint (int_bound 2)
    else
      oneof
        [ map Ast.vint (int_bound 2);
          map Ast.var (oneofl vars);
          map
            (fun v -> Mv_calc.Expr.Binop (Mv_calc.Expr.Add, Ast.var v, Ast.vint 1))
            (oneofl vars) ]
  in
  let atoms =
    [ return Ast.Stop;
      return (Ast.Exit []);
      map (fun g -> Ast.act g [] Ast.Stop) gate;
      map2 (fun g v -> Ast.act g [ Ast.Send (Ast.vint v) ] Ast.Stop) gate
        (int_bound 2);
      map2 (fun g h -> Ast.act g [] (Ast.act h [] Ast.Stop)) gate gate ]
  in
  let rich_atoms =
    [ map (fun e -> Ast.Exit [ e ]) value;
      map3
        (fun g (h, h') e -> Ast.act g [] (Ast.Call ("P", [ h; h' ], [ e ])))
        gate (pair gate gate) value;
      map2 (fun g e -> Ast.act g [] (Ast.Call ("Q", [], [ e ]))) gate value;
      map2 (fun g e -> Ast.act g [ Ast.Send e ] Ast.Stop) gate value ]
  in
  let atom = oneof (if rich then atoms @ rich_atoms else atoms) in
  if depth = 0 then atom
  else
    let sub = terms ~rich vars (depth - 1) in
    let ops =
      [ atom;
        map2 (fun x y -> Ast.Choice [ x; y ]) sub sub;
        map3 (fun gs x y -> Ast.Par (Ast.Gates gs, x, y))
          (oneofl [ []; [ "a" ]; [ "a"; "b" ] ])
          sub sub;
        map2 (fun x y -> Ast.Par (Ast.All, x, y)) sub sub;
        map2 (fun g x -> Ast.Hide ([ g ], x)) gate sub;
        map2 (fun x y -> Ast.Seq (x, [], y)) sub sub;
        map (fun x -> Ast.Guard (Ast.vbool true, x)) sub ]
    in
    let bound = Printf.sprintf "x%d" depth in
    let rich_ops =
      [ map3 (fun g h x -> Ast.Rename ([ (g, h) ], x)) gate gate sub;
        map (fun x -> Ast.Rate (1.5, x)) sub;
        map2
          (fun g k ->
             Ast.act g [ Ast.Receive (bound, Mv_calc.Ty.TIntRange (0, 1)) ] k)
          gate
          (terms ~rich (bound :: vars) (depth - 1));
        map2
          (fun x y ->
             Ast.Seq (x, [ (bound, Mv_calc.Ty.TIntRange (0, 2)) ], y))
          sub
          (terms ~rich (bound :: vars) (depth - 1));
        map2
          (fun e x ->
             Ast.Guard
               (Mv_calc.Expr.Binop (Mv_calc.Expr.Lt, e, Ast.vint 2), x))
          value sub ]
    in
    oneof (if rich then ops @ rich_ops else ops)

let behavior_gen = terms ~rich:false [] 3

(* Specifications over two recursive processes, P [a, b] (n) and
   Q (m), with rich bodies and init. Nothing is typechecked: ill-typed
   arguments, exit/accept arity mismatches and unguarded recursion
   surface as exploration errors, which is part of what is compared. *)
let spec_gen =
  let open QCheck2.Gen in
  let call =
    oneof
      [ map2
          (fun (g, h) n -> Ast.Call ("P", [ g; h ], [ Ast.vint n ]))
          (pair (oneofl gates) (oneofl gates))
          (int_bound 2);
        map (fun m -> Ast.Call ("Q", [], [ Ast.vint m ])) (int_bound 1) ]
  in
  let init =
    oneof
      [ terms ~rich:true [] 3;
        map3
          (fun gs x y -> Ast.Par (Ast.Gates gs, x, y))
          (oneofl [ []; [ "a" ]; [ "a"; "b" ] ])
          call call ]
  in
  map3
    (fun p q init ->
       {
         Ast.enums = [];
         processes =
           [ { Ast.proc_name = "P"; gates = [ "a"; "b" ];
               params = [ ("n", Mv_calc.Ty.TIntRange (0, 2)) ]; body = p };
             { Ast.proc_name = "Q"; gates = [];
               params = [ ("m", Mv_calc.Ty.TIntRange (0, 1)) ]; body = q } ];
         init;
       })
    (map
       (fun b ->
          (* a loop that swaps the gate arguments and moves n over 0..2 *)
          Ast.choice
            [ b;
              Ast.act "a" []
                (Ast.Call
                   ( "P", [ "b"; "a" ],
                     [ Mv_calc.Expr.Binop (Mv_calc.Expr.Sub, Ast.vint 2, Ast.var "n") ] )) ])
       (terms ~rich:true [ "n" ] 2))
    (map
       (fun b ->
          Ast.choice
            [ b;
              Ast.act "c" []
                (Ast.Call
                   ("Q", [], [ Mv_calc.Expr.Binop (Mv_calc.Expr.Sub, Ast.vint 1, Ast.var "m") ])) ])
       (terms ~rich:true [ "m" ] 2))
    init

let lts_of behavior =
  State_space.lts { Ast.enums = []; processes = []; init = behavior }

let equivalent a b = Strong.equivalent (lts_of a) (lts_of b)

let law name count gen predicate =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen predicate)

let pair2 = QCheck2.Gen.pair behavior_gen behavior_gen
let triple3 = QCheck2.Gen.triple behavior_gen behavior_gen behavior_gen

let suite =
  [
    law "||| is commutative (modulo strong bisimulation)" 40 pair2
      (fun (p, q) ->
         equivalent (Ast.Par (Ast.Gates [], p, q)) (Ast.Par (Ast.Gates [], q, p)));
    law "||| is associative" 25 triple3 (fun (p, q, r) ->
        equivalent
          (Ast.Par (Ast.Gates [], Ast.Par (Ast.Gates [], p, q), r))
          (Ast.Par (Ast.Gates [], p, Ast.Par (Ast.Gates [], q, r))));
    law "|[G]| is commutative" 40 pair2 (fun (p, q) ->
        let g = Ast.Gates [ "a"; "b" ] in
        equivalent (Ast.Par (g, p, q)) (Ast.Par (g, q, p)));
    law "choice is commutative" 40 pair2 (fun (p, q) ->
        equivalent (Ast.Choice [ p; q ]) (Ast.Choice [ q; p ]));
    law "stop is neutral for choice" 40 behavior_gen (fun p ->
        equivalent (Ast.Choice [ p; Ast.Stop ]) p);
    law "choice is idempotent" 40 behavior_gen (fun p ->
        equivalent (Ast.Choice [ p; p ]) p);
    law "hiding is idempotent" 40 behavior_gen (fun p ->
        equivalent
          (Ast.Hide ([ "a" ], Ast.Hide ([ "a" ], p)))
          (Ast.Hide ([ "a" ], p)));
    law "hiding all gates then one more changes nothing" 40 behavior_gen
      (fun p ->
         equivalent
           (Ast.Hide (gates, p))
           (Ast.Hide ([ "c" ], Ast.Hide (gates, p))));
    law "normalize is idempotent" 60 behavior_gen (fun p ->
        Ast.normalize (Ast.normalize p) = Ast.normalize p);
    law "normalize preserves behaviour" 40 behavior_gen (fun p ->
        equivalent (Ast.normalize p) p);
    law "print/parse round trip" 60 behavior_gen (fun p ->
        let printed = Format.asprintf "%a" Ast.pp_behavior p in
        Parser.behavior_of_string printed = p);
    law "gate substitution respects renaming equivalence" 40 behavior_gen
      (fun p ->
         (* renaming a to a fresh gate and hiding it equals hiding a *)
         equivalent
           (Ast.Hide ([ "z" ], Ast.subst_gates [ ("a", "z") ] p))
           (Ast.Hide ([ "a" ], p)));
  ]
