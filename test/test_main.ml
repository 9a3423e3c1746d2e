(* Test entry point: one alcotest suite per library. *)

let () =
  Alcotest.run "multival"
    [
      ("util", Test_util.suite);
      ("par", Test_par.suite);
      ("lts", Test_lts.suite);
      ("markov", Test_markov.suite);
      ("bisim", Test_bisim.suite);
      ("kern", Test_kern.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("mcl", Test_mcl.suite);
      ("calc", Test_calc.suite);
      ("calc-laws", Test_calc_laws.suite);
      ("state-space", Test_state_space.suite);
      ("chp", Test_chp.suite);
      ("imc", Test_imc.suite);
      ("compose", Test_compose.suite);
      ("sim", Test_sim.suite);
      ("flow", Test_flow.suite);
      ("report", Test_report.suite);
      ("svl", Test_svl.suite);
      ("store", Test_store.suite);
      ("xstream", Test_xstream.suite);
      ("faust", Test_faust.suite);
      ("fame", Test_fame.suite);
      ("lint", Test_lint.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
    ]
