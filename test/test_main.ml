let () =
  Alcotest.run "overgen"
    [
      ("util", Test_util.tests);
      ("par", Test_par.tests);
      ("fault", Test_fault.tests);
      ("adg", Test_adg.tests);
      ("workload", Test_workload.tests);
      ("mdfg", Test_mdfg.tests);
      ("scheduler", Test_scheduler.tests);
      ("perf+sim", Test_perf_sim.tests);
      ("fpga+mlp", Test_fpga_mlp.tests);
      ("mlp golden", Test_mlp_golden.tests);
      ("dse+hls", Test_dse_hls.tests);
      ("dse islands", Test_dse_islands.tests);
      ("dse golden", Test_dse_golden.tests);
      ("isa+rtl+exec", Test_isa_rtl_exec.tests);
      ("obs", Test_obs.tests);
      ("core", Test_core.tests);
      ("store", Test_store.tests);
      ("service", Test_service.tests);
      ("net", Test_net.tests);
      ("fleet", Test_fleet.tests);
      ("frontend", Test_frontend.tests);
      ("properties", Test_properties.tests);
    ]
