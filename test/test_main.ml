let () =
  Alcotest.run "ccdsm"
    (Test_util.suite @ Test_json.suite @ Test_tempest.suite @ Test_proto.suite @ Test_core.suite
   @ Test_runtime.suite @ Test_cstar.suite @ Test_apps.suite @ Test_harness.suite @ Test_cstar_files.suite @ Test_cstar_fuzz.suite @ Test_model.suite @ Test_semantics.suite @ Test_edge.suite @ Test_trace.suite
   @ Test_fastpath.suite @ Test_faults.suite @ Test_write_update.suite @ Test_check.suite
   @ Test_obs.suite @ Test_registry.suite @ Test_proto_diff.suite @ Test_serve.suite
   @ Test_rdist.suite @ Test_timeline.suite)
