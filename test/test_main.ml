let () =
  Alcotest.run "privateer"
    [ ("support", Test_support.suite);
      ("machine", Test_machine.suite);
      ("ir", Test_ir.suite);
      ("interp", Test_interp.suite);
      ("lang", Test_lang.suite);
      ("profiler", Test_profiler.suite);
      ("analysis", Test_analysis.suite);
      ("transform", Test_transform.suite);
      ("runtime", Test_runtime.suite);
      ("executor", Test_executor.suite);
      ("speculation", Test_speculation.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("baselines", Test_baselines.suite);
      ("workloads", Test_workloads.suite);
      ("properties", Test_props.suite);
      ("server", Test_server.suite);
      ("gen", Test_gen.suite);
      ("contract", Test_contract.suite);
      ("fuzz", Test_fuzz.suite) ]
