let () =
  Alcotest.run "zeus"
    [
      ("sim", Test_sim.suite);
      ("telemetry", Test_telemetry.suite);
      ("net", Test_net.suite);
      ("membership", Test_membership.suite);
      ("store", Test_store.suite);
      ("ownership", Test_ownership.suite);
      ("commit", Test_commit.suite);
      ("core", Test_core.suite);
      ("lb", Test_lb.suite);
      ("locality", Test_locality.suite);
      ("baseline", Test_baseline.suite);
      ("workloads", Test_workloads.suite);
      ("apps", Test_apps.suite);
      ("integration", Test_integration.suite);
      ("smallmodel", Test_smallmodel.suite);
      ("edge", Test_edge.suite);
      ("model", Test_model.suite);
      ("distdir", Test_distdir.suite);
      ("regressions", Test_regressions.suite);
      ("tpcc", Test_tpcc.suite);
      ("experiments", Test_experiments.suite);
      ("properties", Test_properties.suite);
      ("replay", Test_replay.suite);
      ("transport-props", Test_transport_props.suite);
      ("chaos", Test_chaos.suite);
      ("alloc", Test_alloc.suite);
      ("digests", Test_digests.suite);
    ]
