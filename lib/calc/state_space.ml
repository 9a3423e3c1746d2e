module Explore = Mv_lts.Explore

type outcome = {
  lts : Mv_lts.Lts.t;
  terms : Ast.behavior array;
  truncated : bool;
}

(* States are interned terms of one table per exploration: equal
   behaviours are the same node, so comparing two states is one
   pointer test and hashing one is reading the hash stored when the
   node was built. *)
module Term_state = struct
  type t = Semantics.term

  let equal = ( == )
  let hash = Semantics.hash
end

module Term_explore = Explore.Make (Term_state)

let successors table term =
  List.map
    (fun m -> (m.Semantics.name, m.Semantics.target))
    (Semantics.successors table term)

let generate ?tick ?(max_states = 1_000_000) ?expect spec =
  let table = Semantics.table ?expect spec in
  let result =
    Term_explore.run ?tick ~max_states ~on_truncate:`Raise ?expect
      ~initial:(Semantics.intern table spec.Ast.init)
      ~successors:(successors table) ()
  in
  { lts = result.Explore.lts;
    terms = Array.map Semantics.behavior result.Explore.states;
    truncated = result.Explore.truncated }

let lts ?tick ?max_states ?expect spec =
  (generate ?tick ?max_states ?expect spec).lts

(* The out-of-core seen set keys states by their marshalled bytes, so
   they stay whole behaviours; each expansion interns its state in a
   table of its own, which keeps RAM bounded by the hot budget instead
   of growing with every term met. *)
module Behavior_explore = Explore.Make (struct
    type t = Ast.behavior

    let equal = ( = )
    let hash = Hashtbl.hash
  end)

let generate_ooc ?tick ?(max_states = 1_000_000) ?expect ?hot_budget_bytes
    ~scratch_dir ~labels ~emit spec =
  let successors behavior =
    let table = Semantics.table ~expect:64 spec in
    List.map
      (fun (name, term) -> (name, Semantics.behavior term))
      (successors table (Semantics.intern table behavior))
  in
  Behavior_explore.run_ooc ?tick ~max_states ~on_truncate:`Raise ?expect
    ?hot_budget_bytes ~scratch_dir ~labels ~emit
    ~initial:(Ast.normalize spec.Ast.init) ~successors ()

let first_deadlock ?(max_states = 1_000_000) spec =
  let module Seen = Hashtbl.Make (Term_state) in
  let table = Semantics.table spec in
  let seen = Seen.create 1024 in
  let queue = Queue.create () in
  let visit term trace_rev =
    if not (Seen.mem seen term) then begin
      if Seen.length seen >= max_states then
        raise (Explore.Too_many_states max_states);
      Seen.replace seen term ();
      Queue.add (term, trace_rev) queue
    end
  in
  let initial = Semantics.intern table spec.Ast.init in
  Seen.replace seen initial ();
  Queue.add (initial, []) queue;
  let rec search () =
    match Queue.take_opt queue with
    | None -> None
    | Some (term, trace_rev) -> (
        match Semantics.successors table term with
        | [] -> Some (List.rev trace_rev)
        | moves ->
          List.iter
            (fun m -> visit m.Semantics.target (m.Semantics.name :: trace_rev))
            moves;
          search ())
  in
  search ()
