type t =
  | True
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Diamond of Action_formula.t * t
  | Box of Action_formula.t * t
  | Mu of string * t
  | Nu of string * t
  | Var of string

exception Ill_formed of string

let fail msg = raise (Ill_formed msg)

module StringSet = Set.Make (String)

let rec free_vars = function
  | True | False -> StringSet.empty
  | Not f -> free_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
    StringSet.union (free_vars a) (free_vars b)
  | Diamond (_, f) | Box (_, f) -> free_vars f
  | Mu (x, f) | Nu (x, f) -> StringSet.remove x (free_vars f)
  | Var x -> StringSet.singleton x

(* [check_alternation bound f]: [bound] maps each in-scope variable to
   the sign of its binder; crossing a fixpoint of the opposite sign
   while a variable is still free underneath violates alternation
   freedom. *)
let check f =
  let rec walk bound formula =
    match formula with
    | True | False -> ()
    | Var x ->
      if not (List.mem_assoc x bound) then fail ("unbound variable " ^ x)
    | Not inner ->
      if not (StringSet.is_empty (free_vars inner)) then
        fail "negation applied to a formula with free fixpoint variables";
      walk bound inner
    | Implies (a, b) ->
      if not (StringSet.is_empty (free_vars a)) then
        fail "left side of => has free fixpoint variables";
      walk bound a;
      walk bound b
    | And (a, b) | Or (a, b) -> walk bound a; walk bound b
    | Diamond (_, inner) | Box (_, inner) -> walk bound inner
    | Mu (x, inner) | Nu (x, inner) ->
      let sign = match formula with Mu _ -> `Mu | _ -> `Nu in
      let crossed = free_vars inner |> StringSet.remove x in
      StringSet.iter
        (fun y ->
           match List.assoc_opt y bound with
           | Some s when s <> sign ->
             fail
               (Printf.sprintf
                  "variable %s crosses a fixpoint of the opposite sign \
                   (alternation is not supported)"
                  y)
           | Some _ | None -> ())
        crossed;
      walk ((x, sign) :: bound) inner
  in
  walk [] f

let invariant = function
  | Nu (x, And (phi, Box (Action_formula.Any, Var y)))
    when x = y && StringSet.is_empty (free_vars phi) ->
    Some phi
  | _ -> None

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Not f -> Format.fprintf fmt "(not %a)" pp f
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp a pp b
  | Implies (a, b) -> Format.fprintf fmt "(%a => %a)" pp a pp b
  | Diamond (alpha, f) -> Format.fprintf fmt "<%a> %a" Action_formula.pp alpha pp f
  | Box (alpha, f) -> Format.fprintf fmt "[%a] %a" Action_formula.pp alpha pp f
  | Mu (x, f) -> Format.fprintf fmt "(mu %s . %a)" x pp f
  | Nu (x, f) -> Format.fprintf fmt "(nu %s . %a)" x pp f
  | Var x -> Format.pp_print_string fmt x

module Regex = struct
  type t =
    | Act of Action_formula.t
    | Seq of t * t
    | Alt of t * t
    | Star of t

  (* fresh fixpoint variables for star expansions; '%' keeps them out
     of the identifier namespace of parsed formulas *)
  let counter = ref 0

  let fresh () =
    incr counter;
    Printf.sprintf "%%R%d" !counter

  let rec diamond r phi =
    match r with
    | Act alpha -> Diamond (alpha, phi)
    | Seq (a, b) -> diamond a (diamond b phi)
    | Alt (a, b) -> Or (diamond a phi, diamond b phi)
    | Star inner ->
      let x = fresh () in
      Mu (x, Or (phi, diamond inner (Var x)))

  let rec box r phi =
    match r with
    | Act alpha -> Box (alpha, phi)
    | Seq (a, b) -> box a (box b phi)
    | Alt (a, b) -> And (box a phi, box b phi)
    | Star inner ->
      let x = fresh () in
      Nu (x, And (phi, box inner (Var x)))
end

module Macro = struct
  let deadlock_free =
    Nu ("DLF", And (Diamond (Action_formula.Any, True), Box (Action_formula.Any, Var "DLF")))

  let always phi = Nu ("AG", And (phi, Box (Action_formula.Any, Var "AG")))

  let possibly phi = Mu ("EF", Or (phi, Diamond (Action_formula.Any, Var "EF")))

  let inevitably phi =
    Mu
      ( "AF",
        Or (phi, And (Diamond (Action_formula.Any, True), Box (Action_formula.Any, Var "AF"))) )

  let can_do alpha = Diamond (alpha, True)
  let never alpha = always (Box (alpha, False))

  let inevitably_action alpha =
    Mu
      ( "AFA",
        And
          ( Diamond (Action_formula.Any, True),
            Box (Action_formula.Not alpha, Var "AFA") ) )

  let response ~trigger ~reaction =
    always (Box (trigger, inevitably_action reaction))
end
