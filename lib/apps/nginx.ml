module Engine = Zeus_sim.Engine
module Rng = Zeus_sim.Rng
module Stats = Zeus_sim.Stats
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

type config = {
  proxy_us : float;
  sessions : int;
  new_session_prob : float;
  offered_krps : float;
  phase_us : float;
  bucket_us : float;
}

let default_config =
  {
    proxy_us = 25.0;
    sessions = 5_000;
    new_session_prob = 0.02;
    offered_krps = 60.0;
    phase_us = 100_000.0;
    bucket_us = 10_000.0;
  }

type result = { timeline : (float * float) list; total_krps : float }

let run ?(config = default_config) ~with_zeus () =
  let zconfig =
    { Config.default with Config.nodes = 2; replication_degree = 2; dir_replicas = 2 }
  in
  let cluster = Cluster.create ~config:zconfig () in
  let engine = Cluster.engine cluster in
  let rng = Engine.fork_rng engine in
  let ts = Stats.Timeseries.create ~bucket:config.bucket_us in
  let active = ref 1 in
  let known = Hashtbl.create 1024 in
  (* Each nginx node: one worker; per request it looks up (or assigns) the
     cookie's backend in the replicated map, then proxies. *)
  let serve node_id session k =
    let finish () =
      ignore
        (Engine.schedule engine ~after:config.proxy_us (fun () ->
             Stats.Timeseries.add ts ~time:(Engine.now engine) 1.0;
             k ()))
    in
    if not with_zeus then finish ()
    else begin
      let node = Cluster.node cluster node_id in
      if Hashtbl.mem known session then
        Node.run_read node ~thread:0
          ~exec_us:0.0 ~body:(fun ctx commit -> Node.read ctx session (fun _ -> commit ()))
          (fun _ -> finish ())
      else begin
        Hashtbl.replace known session ();
        Node.run_write node ~thread:0
          ~exec_us:0.0 ~body:(fun ctx commit ->
            Node.insert ctx session (Value.of_int (session mod 2));
            commit ())
          (fun _ -> finish ())
      end
    end
  in
  let workers =
    Array.init 2 (fun node_id ->
        Harness.Worker.create engine ~serve:(fun req k -> serve node_id req k))
  in
  let next_session = ref 0 in
  let gen =
    Harness.Generator.create engine
      ~rate_per_us:(config.offered_krps /. 1_000.0)
      ~sink:(fun ~seq ->
        let session =
          if Rng.chance rng config.new_session_prob || !next_session = 0 then begin
            incr next_session;
            !next_session
          end
          else 1 + Rng.int rng !next_session
        in
        let target = if !active = 1 then 0 else seq mod 2 in
        Harness.Worker.push workers.(target) session)
  in
  Harness.Generator.start gen;
  ignore (Engine.schedule engine ~after:config.phase_us (fun () -> active := 2));
  ignore (Engine.schedule engine ~after:(2.0 *. config.phase_us) (fun () -> active := 1));
  Cluster.run cluster ~until_us:(3.0 *. config.phase_us);
  Harness.Generator.stop gen;
  let completed = Array.fold_left (fun a w -> a + Harness.Worker.completed w) 0 workers in
  {
    timeline =
      List.map
        (fun (t, rate) -> (t /. 1_000.0, rate *. 1_000.0))
        (Stats.Timeseries.rate ts);
    total_krps = float_of_int completed /. (3.0 *. config.phase_us) *. 1_000.0;
  }
