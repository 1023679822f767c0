let () =
  Alcotest.run "mtc"
    [
      ("common", Test_common.suite);
      ("pool", Test_pool.suite);
      ("graph", Test_graph.suite);
      ("history", Test_history.suite);
      ("codec", Test_codec.suite);
      ("core", Test_core.suite);
      ("flat", Test_flat.suite);
      ("weak", Test_weak.suite);
      ("lwt", Test_lwt.suite);
      ("sat", Test_sat.suite);
      ("db", Test_db.suite);
      ("workload", Test_workload.suite);
      ("runner", Test_runner.suite);
      ("baselines", Test_baselines.suite);
      ("oracle", Test_oracle.suite);
      ("online", Test_online.suite);
      ("gc", Test_gc.suite);
      ("pk", Test_pk.suite);
      ("service", Test_service.suite);
      ("extra", Test_extra.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("ts", Test_ts.suite);
    ("persist", Test_persist.suite);
    ("golden", Test_golden.suite);
    ]
