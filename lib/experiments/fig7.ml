(** Figure 7: cellular handovers — all-local ideal vs Zeus with 2.5 % and
    5 % handovers, on 3 and 6 nodes. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module W = Zeus_workload

(* One sweep point, pure in its parameters (own cluster, own RNG streams,
   no printing, no shared refs) so [Sweep.map] can run points on separate
   domains with bit-identical results. *)
type point = {
  mtps : float;
  committed : int;
  final_clock_us : float;
  events : int;
  cluster : Cluster.t;
}

let point ~quick ~nodes ~handover_frac ~remote_handover_frac =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let users_per_node = s.Exp.objects_per_node in
  let stations_per_node = max 20 (users_per_node / 200) in
  let w =
    W.Handover.create ~users_per_node ~stations_per_node ~nodes ~handover_frac
      ~remote_handover_frac rng
  in
  W.Handover.populate w cluster;
  let r =
    W.Driver.run cluster ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
      ~issue:(W.Handover.issue w) ()
  in
  let eng = Cluster.engine cluster in
  {
    mtps = r.W.Driver.mtps;
    committed = r.W.Driver.committed;
    final_clock_us = Engine.now eng;
    events = Engine.events_dispatched eng;
    cluster;
  }

let run ~quick =
  let rng = Zeus_sim.Rng.create 7L in
  (* RNG draws happen up front and sequentially; the resulting spec list
     is then mapped (possibly across domains) by [Sweep.map]. *)
  let specs =
    List.concat_map
      (fun nodes ->
        let remote = W.Mobility.remote_handover_fraction ~trips:5_000 ~nodes rng in
        [
          ( Printf.sprintf "all-local ideal (%d nodes)" nodes,
            nodes, 0.025, 0.0 );
          ( Printf.sprintf "Zeus 2.5%% handovers (%d nodes)" nodes,
            nodes, 0.025, remote );
          ( Printf.sprintf "Zeus 5%% handovers (%d nodes)" nodes,
            nodes, 0.05, remote );
        ])
      [ 3; 6 ]
  in
  let points =
    Sweep.map
      (fun (_, nodes, handover_frac, remote_handover_frac) ->
        point ~quick ~nodes ~handover_frac ~remote_handover_frac)
      specs
  in
  let series =
    List.map2
      (fun (label, nodes, _, _) p ->
        { Exp.label; points = [ (float_of_int nodes, p.mtps) ] })
      specs points
  in
  Exp.print_figure
    {
      Exp.id = "fig7";
      title = "Handovers: all-local ideal vs Zeus, 2.5%/5% handovers";
      x_axis = "nodes";
      y_axis = "Mtps";
      series;
      paper =
        [
          "Zeus within 4-9% of the all-local ideal";
          "throughput scales linearly with node count";
        ];
      notes = [ Exp.scale_note ~quick ];
    };
  match List.rev points with
  | p :: _ -> Exp.print_phase_breakdown "fig7: per-phase txn latency (last Zeus point)" p.cluster
  | [] -> ()
