module Engine = Zeus_sim.Engine
module Metrics = Zeus_telemetry.Metrics
module Hub = Zeus_telemetry.Hub
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node

type retry = { max_attempts : int; base_us : float; cap_us : float }

let default_retry = { max_attempts = 3; base_us = 20.0; cap_us = 400.0 }

type result = {
  committed : int;
  aborted : int;
  retries : int;
  duration_us : float;
  mtps : float;
  abort_rate : float;
  lat_p50_us : float;
  lat_p99_us : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%.3f Mtps (%d committed, %d aborted, %.1f%% aborts, p50 %.1fus, p99 %.1fus)"
    r.mtps r.committed r.aborted (100.0 *. r.abort_rate) r.lat_p50_us r.lat_p99_us

(* Pure avalanche hash of the attempt identity, as in the transport's
   retransmission backoff: deterministic (same seed, same schedule) yet
   de-synchronizing threads whose aborts collided at the same instant. *)
let retry_jitter ~node ~thread ~seq ~attempt =
  let h =
    (node * 0x9e3779b1) lxor (thread * 0x85ebca6b) lxor (seq * 0xc2b2ae35)
    lxor ((attempt + 1) * 0x27d4eb2f)
  in
  float_of_int (h land 0xffff) /. 65536.0

let retry_delay r ~node ~thread ~seq ~attempt =
  let raw = r.base_us *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min raw r.cap_us in
  capped *. (1.0 +. (0.25 *. retry_jitter ~node ~thread ~seq ~attempt))

let run cluster ?nodes ?threads ?retry ~warmup_us ~duration_us ~issue () =
  let engine = Cluster.engine cluster in
  let config = Cluster.config cluster in
  let node_ids =
    match nodes with
    | Some ns -> ns
    | None -> List.init (Cluster.nodes cluster) (fun i -> i)
  in
  let threads = Option.value threads ~default:config.Zeus_core.Config.app_threads in
  let t0 = Engine.now engine in
  let start = t0 +. warmup_us in
  let stop = start +. duration_us in
  let committed = ref 0 and aborted = ref 0 and retried = ref 0 in
  (* Registered on the cluster hub only when retrying is on, so a plain
     run's counter registry is byte-identical to before. *)
  let c_retries =
    match retry with
    | None -> None
    | Some _ ->
      Some (Metrics.Counter.v (Hub.metrics (Cluster.telemetry cluster)) "driver.retries")
  in
  (* One standalone histogram per run: log-scale buckets survive past the
     reservoir cap, and a fresh instance needs no reset between runs. *)
  let latencies = Metrics.Histogram.create "driver.latency_us" in
  List.iter
    (fun id ->
      let node = Cluster.node cluster id in
      for thread = 0 to threads - 1 do
        let seq = ref 0 in
        let rec loop () =
          if Engine.now engine < stop && Node.is_alive node then begin
            let s = !seq in
            incr seq;
            let issued_at = Engine.now engine in
            (* [attempt] counts issues of this logical transaction; a retried
               commit is counted once, with latency from the first issue. *)
            let rec submit attempt =
              issue node ~thread ~seq:s (fun ok ->
                  let now = Engine.now engine in
                  let counting = now >= start && now < stop in
                  if ok then begin
                    if counting then begin
                      incr committed;
                      Metrics.Histogram.observe latencies (now -. issued_at)
                    end;
                    loop ()
                  end
                  else
                    match retry with
                    | Some r when attempt < r.max_attempts && now < stop ->
                      if counting then incr retried;
                      Option.iter Metrics.Counter.incr c_retries;
                      let after =
                        retry_delay r ~node:id ~thread ~seq:s ~attempt
                      in
                      ignore
                        (Engine.schedule engine ~after (fun () ->
                             if Node.is_alive node then submit (attempt + 1)
                             else loop ()))
                    | _ ->
                      if counting then incr aborted;
                      loop ())
            in
            submit 1
          end
        in
        (* Stagger thread start to avoid artificial phase locking. *)
        ignore
          (Engine.schedule engine
             ~after:(0.01 *. float_of_int ((id * threads) + thread))
             loop)
      done)
    node_ids;
  Engine.run ~until:stop engine;
  (* Drain in-flight transactions and replication without counting them. *)
  Engine.run ~until:(stop +. 5_000.0) engine;
  let c = !committed and a = !aborted in
  {
    committed = c;
    aborted = a;
    retries = !retried;
    duration_us;
    mtps = float_of_int c /. duration_us;
    abort_rate =
      (if c + a = 0 then 0.0 else float_of_int a /. float_of_int (c + a));
    lat_p50_us = Metrics.Histogram.percentile latencies 50.0;
    lat_p99_us = Metrics.Histogram.percentile latencies 99.0;
  }

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
