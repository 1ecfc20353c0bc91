module Engine = Zeus_sim.Engine
module Metrics = Zeus_telemetry.Metrics
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Txn = Zeus_store.Txn

type result = {
  committed : int;
  aborted : int;
  duration_us : float;
  mtps : float;
  abort_rate : float;
  lat_p50_us : float;
  lat_p99_us : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%.3f Mtps (%d committed, %d aborted, %.1f%% aborts, p50 %.1fus, p99 %.1fus)"
    r.mtps r.committed r.aborted (100.0 *. r.abort_rate) r.lat_p50_us r.lat_p99_us

let measure engine ~nodes ~threads ~warmup_us ~duration_us issue =
  let start = Engine.now engine +. warmup_us in
  let stop = start +. duration_us in
  let committed = ref 0 and aborted = ref 0 in
  (* One standalone histogram per run: log-scale buckets survive past the
     reservoir cap, and a fresh instance needs no reset between runs. *)
  let latencies = Metrics.Histogram.create "driver.latency_us" in
  List.iter
    (fun id ->
      for thread = 0 to threads - 1 do
        let rec loop () =
          if Engine.now engine < stop then begin
            let issued_at = Engine.now engine in
            issue id ~thread (fun ok ->
                let now = Engine.now engine in
                if now >= start && now < stop then begin
                  if ok then begin
                    incr committed;
                    Metrics.Histogram.observe latencies (now -. issued_at)
                  end
                  else incr aborted
                end;
                loop ())
          end
        in
        (* Stagger thread start to avoid artificial phase locking. *)
        ignore
          (Engine.schedule engine
             ~after:(0.01 *. float_of_int ((id * threads) + thread))
             loop)
      done)
    nodes;
  Engine.run ~until:stop engine;
  (* Drain in-flight transactions and replication without counting them. *)
  Engine.run ~until:(stop +. 5_000.0) engine;
  let c = !committed and a = !aborted in
  {
    committed = c;
    aborted = a;
    duration_us;
    mtps = float_of_int c /. duration_us;
    abort_rate =
      (if c + a = 0 then 0.0 else float_of_int a /. float_of_int (c + a));
    lat_p50_us = Metrics.Histogram.percentile latencies 50.0;
    lat_p99_us = Metrics.Histogram.percentile latencies 99.0;
  }

let run cluster ?nodes ?threads ~warmup_us ~duration_us ~issue () =
  let nodes =
    match nodes with
    | Some ns -> ns
    | None -> List.init (Cluster.nodes cluster) (fun i -> i)
  in
  let threads =
    Option.value threads ~default:(Cluster.config cluster).Zeus_core.Config.app_threads
  in
  measure (Cluster.engine cluster) ~nodes ~threads ~warmup_us ~duration_us
    (fun id ~thread done_ ->
      let node = Cluster.node cluster id in
      (* A crashed node's threads retire. *)
      if Node.is_alive node then
        issue node ~thread (function
          | Txn.Committed -> done_ true
          | Txn.Aborted _ -> done_ false))

let closed_loop cluster ~nodes ?threads gen =
  let engine = Cluster.engine cluster in
  let threads =
    Option.value threads ~default:(Cluster.config cluster).Zeus_core.Config.app_threads
  in
  let issuing = ref true in
  List.iter
    (fun id ->
      let node = Cluster.node cluster id in
      for thread = 0 to threads - 1 do
        let rec loop () =
          if !issuing then begin
            if Node.is_alive node then
              Spec.run_on_zeus node ~thread (gen node) (fun _ -> loop ())
            else
              (* crashed driver: poll for the rejoin instead of dying *)
              ignore (Engine.schedule engine ~after:250.0 loop)
          end
        in
        ignore
          (Engine.schedule engine
             ~after:(0.1 *. float_of_int ((id * threads) + thread))
             loop)
      done)
    nodes;
  fun () -> issuing := false
