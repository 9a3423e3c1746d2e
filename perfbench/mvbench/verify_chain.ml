(* verify_chain: the two verification commands a user runs on a
   k-buffer chain (3^k states). The check is [mval check --deadlock
   --formula ...]: generate, then Ops.check_texts. The minimization is
   one generate, then strong minimization (no reduction) and branching
   minimization with the internal gates hidden (2k+1 states). The MVL
   interpreter does most of the work; lumping, solving and spilling do
   none. *)

open Mv_core
module Json = Harness.Json

let config = Flow.Config.default

let formulas (c : Models.chain) =
  [
    (* holds: the output stays reachable from every state *)
    Printf.sprintf "[true*] <true* . %s> true" c.output;
    (* violated: the input blocks once the first buffer is full *)
    Printf.sprintf "[true*] <%s> true" c.input;
  ]

let verdict line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> "?"
  | words ->
    if List.mem "VIOLATED" words then "violated"
    else List.nth words (List.length words - 1)

let read file = In_channel.with_open_bin file In_channel.input_all

let setup ~size ~seed ~dir =
  let k = match size with Harness.Full -> 9 | Harness.Smoke -> 4 in
  let chain = Models.verify_chain ~seed ~k in
  let model = Filename.concat dir "chain.mvl" in
  Out_channel.with_open_bin model (fun oc -> output_string oc chain.text);
  let formulas = formulas chain in
  let witness_length = ref 0 in
  let generate () =
    Harness.measured_alloc (fun () ->
        Span.with_ "calc.generate" (fun () ->
            Flow.Run.generate config (Flow.model_of_text (read model))))
  in
  (* [mval check]: one verdict line per property *)
  let check ~traced =
    let lts, alloc = generate () in
    let verdicts =
      if not traced then
        let texts =
          Mv_serve.Ops.check_texts ~engine:`Fixpoint ~deadlock:true ~formulas lts
        in
        List.map verdict (String.split_on_char '\n' (String.trim texts.Mv_serve.Ops.out))
      else
        (* the same calls Ops.check_texts makes, one layer at a time *)
        let check (name, formula) =
          let holds = Span.with_ "mcl.eval" (fun () -> Mv_mcl.Eval.holds lts formula) in
          if not holds then begin
            let witness =
              if name = "deadlock freedom" then
                Span.with_ "lts.witness" (fun () -> Mv_lts.Trace.shortest_to_deadlock lts)
              else
                let sat = Span.with_ "mcl.eval" (fun () -> Mv_mcl.Eval.sat lts formula) in
                Span.with_ "lts.witness" (fun () ->
                    Mv_lts.Trace.shortest_to_violation lts ~sat)
            in
            Option.iter
              (fun t -> witness_length := List.length t.Mv_lts.Trace.labels)
              witness
          end;
          if holds then "holds" else "violated"
        in
        List.map check
          (("deadlock freedom", Mv_mcl.Formula.Macro.deadlock_free)
          :: List.map (fun f -> (f, Mv_mcl.Parser.formula_of_string f)) formulas)
    in
    (lts, alloc, verdicts)
  in
  (* [mval minimize]: strong, then branching over the hidden chain *)
  let minimize () =
    let lts, gen_alloc = generate () in
    let strong = Span.with_ "bisim.strong" (fun () -> Flow.Run.minimize config Flow.Strong lts) in
    let hidden = Span.with_ "lts.hide" (fun () -> Mv_lts.Lts.hide lts ~gates:chain.internal) in
    let branching, br_alloc =
      Harness.measured_alloc (fun () ->
          Span.with_ "bisim.branching" (fun () ->
              Flow.Run.minimize config Flow.Branching hidden))
    in
    (lts, strong, branching, gen_alloc, br_alloc)
  in
  let pass ~traced =
    let lts, check_alloc, verdicts = check ~traced in
    let generated, strong, branching, gen_alloc, br_alloc = minimize () in
    let module L = Mv_lts.Lts in
    let layers =
      if not traced then []
      else
        let spans = Span.all () in
        let gen_s = Span.total_self_s spans "calc.generate" in
        let states = float (L.nb_states lts + L.nb_states generated) in
        [
          ("calc.generate.s", gen_s);
          ("calc.generate.states", states);
          ("calc.generate.transitions", float (L.nb_transitions lts + L.nb_transitions generated));
          ("calc.generate.states_per_s", states /. gen_s);
          ("calc.generate.alloc_mw", check_alloc +. gen_alloc);
          ("mcl.eval.s", Span.total_self_s spans "mcl.eval");
          ("mcl.eval.states", float (L.nb_states lts));
          ("lts.witness.s", Span.total_self_s spans "lts.witness");
          ("lts.witness.length", float !witness_length);
          ("bisim.strong.s", Span.total_self_s spans "bisim.strong");
          ("bisim.strong.states_out", float (L.nb_states strong));
          ("bisim.branching.s", Span.total_self_s spans "bisim.branching");
          ("bisim.branching.states_in", float (L.nb_states generated));
          ("bisim.branching.states_out", float (L.nb_states branching));
          ("bisim.branching.alloc_mw", br_alloc);
        ]
    in
    {
      Harness.latencies = [];
      attempted = 2;
      failed = 0;
      answers =
        [
          ("states", Json.Int (L.nb_states lts));
          ("transitions", Json.Int (L.nb_transitions lts));
          ("verdicts", Json.List (List.map (fun v -> Json.String v) verdicts));
          ("strong_states", Json.Int (L.nb_states strong));
          ("branching_states", Json.Int (L.nb_states branching));
        ];
      layers;
    }
  in
  {
    Harness.pass;
    finish = (fun ~traced:_ -> ([], 0));
    orphans = (fun () -> List.filter (( <> ) "chain.mvl") (Harness.files dir));
    close = (fun () -> Harness.remove_tree dir);
  }

let workload = { Harness.name = "verify_chain"; cores = 1; setup }
