(** Figure 8: Smallbank throughput while varying the fraction of write
    transactions that require an ownership change, vs the FaSST- and
    DrTM-like baselines at static (drifted-to-random) sharding.

    All points (Zeus and baseline) run through {!Sweep.map}, which
    spreads them across the host's cores with bit-identical results. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module W = Zeus_workload
module B = Zeus_baseline

let zeus_point ~quick ~nodes ~remote_frac =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node ~nodes ~remote_frac rng
  in
  Cluster.populate_n cluster ~n:(W.Smallbank.total_keys w)
    ~owner_of:(fun k -> W.Smallbank.home_of_key w k)
    (fun _ -> Bytes.copy W.Smallbank.initial_value);
  let r =
    W.Driver.run cluster ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
      ~issue:(fun node ~thread ~seq:_ done_ ->
        W.Spec.run_on_zeus node ~thread
          (W.Smallbank.gen w ~home:(Node.id node))
          (fun outcome -> done_ (outcome = Zeus_store.Txn.Committed)))
      ()
  in
  let owntxn = ref 0 in
  for i = 0 to nodes - 1 do
    owntxn := !owntxn + Node.txns_with_ownership (Cluster.node cluster i)
  done;
  (* x-axis: % of write transactions (85 % of the mix) needing ownership *)
  let writes = 0.85 *. float_of_int r.W.Driver.committed in
  (100.0 *. float_of_int !owntxn /. Float.max 1.0 writes, r.W.Driver.mtps, r, cluster)

let baseline_point ~quick ~nodes profile =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let rng = Zeus_sim.Rng.create 7L in
  (* Static sharding after the access pattern drifted to (almost) random
     placement (§8.2). *)
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node ~nodes
      ~remote_frac:(1.0 -. (1.0 /. float_of_int nodes))
      ~local_reads:false rng
  in
  let eng =
    B.Engine.create ~profile ~config ~primary_of:(fun k -> W.Smallbank.home_of_key w k) ()
  in
  let r =
    B.Engine.run_load eng ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
      ~gen:(fun ~home -> W.Smallbank.gen w ~home)
      ()
  in
  r.W.Driver.mtps

let run ~quick =
  let fracs =
    if quick then [ 0.0; 0.02; 0.05 ]
    else [ 0.0; 0.005; 0.01; 0.02; 0.03; 0.05; 0.08; 0.12 ]
  in
  (* Every point — Zeus and baseline alike — is an independent simulation,
     so flatten them all into one [Sweep.map] and rebuild the series from
     the ordered results afterwards (printing and the shared refs stay in
     this sequential caller; see sweep.ml). *)
  let tasks =
    List.map (fun f -> `Zeus (3, f)) fracs
    @ List.map (fun f -> `Zeus (6, f)) fracs
    @ [
        `Flat (3, B.Profile.fasst);
        `Flat (6, B.Profile.fasst);
        `Flat (3, B.Profile.drtm);
        `Flat (6, B.Profile.drtm);
      ]
  in
  let results =
    Sweep.map
      (function
        | `Zeus (nodes, f) ->
          let x, y, r, cluster = zeus_point ~quick ~nodes ~remote_frac:f in
          `Zeus_r (x, y, r, cluster)
        | `Flat (nodes, profile) -> `Flat_r (baseline_point ~quick ~nodes profile))
      tasks
  in
  let nfracs = List.length fracs in
  let zeus_r = List.filteri (fun i _ -> i < 2 * nfracs) results in
  let flat_r = List.filteri (fun i _ -> i >= 2 * nfracs) results in
  let zeus_points n =
    List.filteri (fun i _ -> i / nfracs = n) zeus_r
    |> List.map (function
         | `Zeus_r (x, y, r, cluster) -> (x, y, r, cluster)
         | `Flat_r _ -> assert false)
  in
  let latency_notes = ref [] in
  let zeus idx nodes =
    let pts = zeus_points idx in
    List.iter2
      (fun f (_, _, r, _) ->
        if f = 0.0 then
          latency_notes :=
            Printf.sprintf
              "Zeus txn latency at 0%% remote (%d nodes): p50 %.1fus, p99 %.1fus"
              nodes r.W.Driver.lat_p50_us r.W.Driver.lat_p99_us
            :: !latency_notes)
      fracs pts;
    {
      Exp.label = Printf.sprintf "Zeus (%d nodes)" nodes;
      points = List.map (fun (x, y, _, _) -> (x, y)) pts;
    }
  in
  let flats =
    List.map2
      (fun (nodes, profile) r ->
        let y = match r with `Flat_r y -> y | `Zeus_r _ -> assert false in
        {
          Exp.label =
            Printf.sprintf "%s (%d nodes, static sharding)" profile.B.Profile.name nodes;
          points = [ (0.0, y); (30.0, y) ];
        })
      [ (3, B.Profile.fasst); (6, B.Profile.fasst); (3, B.Profile.drtm); (6, B.Profile.drtm) ]
      flat_r
  in
  let series = zeus 0 3 :: zeus 1 6 :: flats in
  Exp.print_figure
    {
      Exp.id = "fig8";
      title = "Smallbank while varying remote write transactions";
      x_axis = "% write txns needing ownership change";
      y_axis = "Mtps";
      series;
      paper =
        [
          "Zeus ~35% over FaSST and ~100% over DrTM at Venmo-level remote fractions";
          "break-even vs FaSST below ~5%, vs DrTM below ~20% ownership-change txns";
          "3- and 6-node trends identical";
        ];
      notes = Exp.scale_note ~quick :: List.rev !latency_notes;
    };
  (* The phase table shows the last point of the 3-node sweep. *)
  match List.rev (zeus_points 0) with
  | (_, _, _, cluster) :: _ ->
    Exp.print_phase_breakdown "fig8: per-phase txn latency (last Zeus point)" cluster
  | [] -> ()
