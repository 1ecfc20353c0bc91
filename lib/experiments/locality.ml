(** §8 "Locality in workloads": remote-transaction fractions of the Boston
    handover model, the Venmo-like payment graph, and the TPC-C analytical
    model. *)

module Rng = Zeus_sim.Rng
module W = Zeus_workload

let run ~quick =
  let rng = Rng.create 2024L in
  let trips = if quick then 2_000 else 20_000 in
  let boston =
    List.map
      (fun nodes ->
        (nodes, W.Mobility.remote_handover_fraction ~trips ~nodes rng))
      [ 2; 3; 4; 5; 6 ]
  in
  let venmo =
    List.map
      (fun nodes ->
        let v = W.Venmo.create ~nodes rng in
        (nodes, W.Venmo.remote_fraction ~samples:(if quick then 20_000 else 200_000) v))
      [ 3; 6 ]
  in
  let tpcc_txn = W.Tpcc.remote_txn_fraction in
  let tpcc_access = W.Tpcc.remote_access_fraction in
  Exp.print_kv "locality: remote fractions of workloads (§8)"
    (List.map
       (fun (n, f) ->
         (Printf.sprintf "Boston handovers, %d nodes (remote/all handovers)" n,
          Printf.sprintf "%.1f%%" (100.0 *. f)))
       boston
    @ [ ("  paper", "up to 6.2%% remote handovers at 6 nodes") ]
    @ List.map
        (fun (n, f) ->
          (Printf.sprintf "Venmo-like payments, %d nodes (remote txns)" n,
           Printf.sprintf "%.2f%%" (100.0 *. f)))
        venmo
    @ [
        ("  paper", "0.7% at 3 nodes, 1.2% at 6 nodes");
        ( "TPC-C remote transactions (spec-standard model)",
          Printf.sprintf "%.2f%%" (100.0 *. tpcc_txn) );
        ( "TPC-C remote accesses (per-object metric)",
          Printf.sprintf "%.2f%%" (100.0 *. tpcc_access) );
        ("  paper", "2.45% (metric/assumptions unstated; see EXPERIMENTS.md)");
      ])
