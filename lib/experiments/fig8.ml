(** Figures 8 and 9: Zeus throughput while varying the fraction of write
    transactions that require an ownership change, vs static-sharded
    baselines at (drifted-to-random) placement — Smallbank against the
    FaSST- and DrTM-like profiles (Figure 8), TATP against the FaSST- and
    FaRM-like ones (Figure 9).  One sweep runs both; a figure is data.

    All points (Zeus and baseline) run through {!Sweep.map}, which
    spreads them across the host's cores with bit-identical results. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module W = Zeus_workload
module B = Zeus_baseline

(* A keyed workload, built for one cluster size. *)
type load = {
  populate : Cluster.t -> unit;
  home_of_key : int -> int;
  gen : home:int -> W.Spec.t;
}

type figure = {
  id : string;
  title : string;
  create :
    objects_per_node:int ->
    nodes:int ->
    remote_frac:float ->
    local_reads:bool ->
    Zeus_sim.Rng.t ->
    load;
  fracs : quick:bool -> float list;  (** remote fractions of the Zeus points, from 0 *)
  baselines : B.Profile.t list;
  baseline_seed : int64;  (** the baselines' workload RNG *)
  flat_x : float;  (** x extent of the baselines' flat lines *)
  paper : string list;
}

let smallbank =
  {
    id = "fig8";
    title = "Smallbank while varying remote write transactions";
    create =
      (fun ~objects_per_node ~nodes ~remote_frac ~local_reads rng ->
        let w =
          W.Smallbank.create ~accounts_per_node:objects_per_node ~nodes ~remote_frac
            ~local_reads rng
        in
        {
          populate = W.Smallbank.populate w;
          home_of_key = W.Smallbank.home_of_key w;
          gen = W.Smallbank.gen w;
        });
    fracs =
      (fun ~quick ->
        if quick then [ 0.0; 0.02; 0.05 ]
        else [ 0.0; 0.005; 0.01; 0.02; 0.03; 0.05; 0.08; 0.12 ]);
    baselines = [ B.Profile.fasst; B.Profile.drtm ];
    baseline_seed = 7L;
    flat_x = 30.0;
    paper =
      [
        "Zeus ~35% over FaSST and ~100% over DrTM at Venmo-level remote fractions";
        "break-even vs FaSST below ~5%, vs DrTM below ~20% ownership-change txns";
        "3- and 6-node trends identical";
      ];
  }

let tatp =
  {
    id = "fig9";
    title = "TATP while varying remote write transactions";
    create =
      (fun ~objects_per_node ~nodes ~remote_frac ~local_reads rng ->
        let w =
          W.Tatp.create ~subscribers_per_node:objects_per_node ~nodes ~remote_frac
            ~local_reads rng
        in
        {
          populate = W.Tatp.populate w;
          home_of_key = W.Tatp.home_of_key w;
          gen = W.Tatp.gen w;
        });
    fracs =
      (fun ~quick ->
        if quick then [ 0.0; 0.1; 0.3 ] else [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5; 0.7 ]);
    baselines = [ B.Profile.fasst; B.Profile.farm ];
    baseline_seed = 11L;
    flat_x = 60.0;
    paper =
      [
        "Zeus up to 2x FaSST and 3.5x FaRM at low remote fractions";
        "break-even vs FaSST below ~20%, vs FaRM below ~40% of write txns";
      ];
  }

(* [keep] hands the cluster back for the phase table; every other point's
   cluster is dropped as soon as the point ends. *)
let zeus_point fig ~quick ~nodes ~remote_frac ~keep =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    fig.create ~objects_per_node:s.Exp.objects_per_node ~nodes ~remote_frac
      ~local_reads:true rng
  in
  w.populate cluster;
  let r, x = Exp.run_zeus cluster ~quick ~issue:(W.Spec.issue w.gen) in
  (x, r, if keep then Some cluster else None)

(* Static sharding after the access pattern drifted to (almost) random
   placement (§8.2). *)
let baseline_point fig ~quick ~nodes profile =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let w =
    fig.create ~objects_per_node:s.Exp.objects_per_node ~nodes
      ~remote_frac:(1.0 -. (1.0 /. float_of_int nodes))
      ~local_reads:false
      (Zeus_sim.Rng.create fig.baseline_seed)
  in
  let eng = B.Engine.create ~profile ~config ~primary_of:w.home_of_key () in
  let r =
    B.Engine.run_load eng ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
      ~gen:w.gen ()
  in
  r.W.Driver.mtps

(* Prints the figure and returns the cluster of the 3-node sweep's last
   point, for the caller's phase table. *)
let run fig ~quick =
  let fracs = fig.fracs ~quick in
  let last = List.nth fracs (List.length fracs - 1) in
  let node_counts = [ 3; 6 ] in
  let flats =
    List.concat_map (fun p -> List.map (fun n -> (n, p)) node_counts) fig.baselines
  in
  (* Every point — Zeus and baseline alike — is an independent simulation,
     so flatten them all into one [Sweep.map] and rebuild the series from
     the ordered results afterwards (printing stays in this sequential
     caller; see sweep.ml). *)
  let tasks =
    List.concat_map (fun n -> List.map (fun f -> `Zeus (n, f)) fracs) node_counts
    @ List.map (fun p -> `Flat p) flats
  in
  let results =
    Sweep.map
      (function
        | `Zeus (nodes, f) ->
          `Zeus_r
            (zeus_point fig ~quick ~nodes ~remote_frac:f
               ~keep:(nodes = 3 && f = last))
        | `Flat (nodes, profile) -> `Flat_r (baseline_point fig ~quick ~nodes profile))
      tasks
  in
  let zeus_r =
    List.filter_map (function `Zeus_r p -> Some p | `Flat_r _ -> None) results
  in
  let flat_r = List.filter_map (function `Flat_r y -> Some y | `Zeus_r _ -> None) results in
  let nfracs = List.length fracs in
  let zeus_series idx nodes =
    let pts = List.filteri (fun i _ -> i / nfracs = idx) zeus_r in
    {
      Exp.label = Printf.sprintf "Zeus (%d nodes)" nodes;
      points = List.map (fun (x, r, _) -> (x, r.W.Driver.mtps)) pts;
    }
  in
  let latency_note idx nodes =
    let _, r, _ = List.nth zeus_r (idx * nfracs) in
    Printf.sprintf "Zeus txn latency at 0%% remote (%d nodes): p50 %.1fus, p99 %.1fus" nodes
      r.W.Driver.lat_p50_us r.W.Driver.lat_p99_us
  in
  let flat_series =
    List.map2
      (fun (nodes, profile) y ->
        {
          Exp.label =
            Printf.sprintf "%s (%d nodes, static sharding)" profile.B.Profile.name nodes;
          points = [ (0.0, y); (fig.flat_x, y) ];
        })
      flats flat_r
  in
  Exp.print_figure
    {
      Exp.id = fig.id;
      title = fig.title;
      x_axis = "% write txns needing ownership change";
      y_axis = "Mtps";
      series = List.mapi zeus_series node_counts @ flat_series;
      paper = fig.paper;
      notes = Exp.scale_note ~quick :: List.rev (List.mapi latency_note node_counts);
    };
  Option.get (List.find_map (fun (_, _, c) -> c) zeus_r)
