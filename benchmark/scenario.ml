(* The benchmark's workloads and one simulated run of a workload.

   A run builds a fresh cluster, populates it, and drives it closed-loop:
   [Config.app_threads] simulated application threads on each driving node
   issue their next transaction from the previous one's continuation.  An
   aborted transaction is re-issued by its client (same spec, capped
   backoff) until it commits, so a transaction the user submitted fails
   only if it never commits; its latency runs from the first issue.

   Everything is reached through public functions of the program: the
   cluster, node and workload modules, the chaos monitor and nemesis, and
   the agents' io taps for the traced run. *)

module Engine = Zeus_sim.Engine
module Rng = Zeus_sim.Rng
module Fabric = Zeus_net.Fabric
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Txn = Zeus_store.Txn
module OwnA = Zeus_ownership.Agent
module OwnC = Zeus_ownership.Core
module ComA = Zeus_commit.Agent
module ComC = Zeus_commit.Core
module W = Zeus_workload
module Chaos = Zeus_chaos

type kind = Smallbank | Tatp
type crash = { victim : int; at_us : float; down_us : float }

type t = {
  name : string;
  kind : kind;
  nodes : int;
  per_node : int;  (** accounts (Smallbank) or subscribers (TATP) per home node *)
  remote_frac : float;
  drivers : int list;
  duration_us : float;  (** measurement window, after the warm-up *)
  crash : crash option;  (** Detected membership, monitor and nemesis when set *)
}

let warmup_us = 2_000.0

let all =
  [
    (* Every write is local: reliable commit, transport batching and
       follower apply are the hot path; the ownership protocol is idle. *)
    {
      name = "smallbank-local";
      kind = Smallbank;
      nodes = 3;
      per_node = 10_000;
      remote_frac = 0.0;
      drivers = [ 0; 1; 2 ];
      duration_us = 15_000.0;
      crash = None;
    };
    (* 30 % of writes touch another node's account: ownership acquisition,
       the directory and transport fan-out, which smallbank-local bypasses. *)
    {
      name = "smallbank-remote";
      kind = Smallbank;
      nodes = 3;
      per_node = 10_000;
      remote_frac = 0.3;
      drivers = [ 0; 1; 2 ];
      duration_us = 80_000.0;
      crash = None;
    };
    (* 80 % local read-only transactions over 1.35M objects, far beyond the
       cache: store reads and the engine dominate, and set-up is heavy. *)
    {
      name = "tatp-read";
      kind = Tatp;
      nodes = 3;
      per_node = 50_000;
      remote_frac = 0.0;
      drivers = [ 0; 1; 2 ];
      duration_us = 15_000.0;
      crash = None;
    };
    (* A follower crashes and restarts under Detected membership: the only
       workload with heartbeats, suspicion, lease eviction, replay, aborts
       and a recovery time. *)
    {
      name = "smallbank-crash";
      kind = Smallbank;
      nodes = 4;
      per_node = 2_000;
      remote_frac = 0.2;
      drivers = [ 0; 1; 2 ];
      duration_us = 48_000.0;
      crash = Some { victim = 3; at_us = 10_000.0; down_us = 20_000.0 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [scale] compresses the post-warm-up timeline.  With a crash, only the
   part after the fault is compressed, and never below a half: recovery
   is measured against the goodput of the windows just before the fault,
   which must lie past the warm-up's early peak, and the windows after the
   view change must be enough to show goodput back at that level.
   [population] shrinks the key space (the smoke test's only use). *)
let scaled w ~scale ~population =
  let per_node = max 1 (int_of_float (float_of_int w.per_node *. population)) in
  match w.crash with
  | None -> { w with per_node; duration_us = w.duration_us *. scale }
  | Some c ->
    let scale = Float.max scale 0.5 and before = c.at_us -. warmup_us in
    {
      w with
      per_node;
      duration_us = before +. ((w.duration_us -. before) *. scale);
      crash = Some { c with down_us = c.down_us *. scale };
    }

let config w ~seed =
  let base = { Config.default with Config.nodes = w.nodes; seed } in
  match w.crash with
  | None -> base
  | Some _ ->
    (* As in the faults experiment: a 2-replica directory on nodes 0-1, and
       no auto-trim (with 4 nodes and degree 3 a remote acquisition's trim
       can wedge an object's o_state). *)
    {
      base with
      Config.dir_replicas = 2;
      auto_trim = false;
      membership_mode = Zeus_membership.Service.Detected;
    }

(* ---------- growable buffers ------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort Float.compare a;
    a
end

(* ---------- io-tap log (traced run) ----------------------------------------- *)

type entry =
  | Own of { at : float; node : int; input : OwnC.input; effs : OwnC.eff list }
  | Com of { at : float; node : int; input : ComC.input; effs : ComC.eff list }

(* ---------- one run --------------------------------------------------------- *)

type chaos = { report : Chaos.Report.scenario; nemesis_done : bool }

type run = {
  w : t;
  cluster : Cluster.t;
  setup_s : float;
  run_s : float;  (** wall time of driving plus the drain *)
  peak_rss_mb : float;  (** after the drain, before any check allocates *)
  minor_words : float;  (** allocated while driving and draining *)
  issued : int;  (** transactions submitted by clients *)
  failed : int;  (** submitted transactions that never committed *)
  window_commits : int;
  latencies : float array;  (** sorted, virtual µs, window commits only *)
  stop_us : float;
  wseed : int64;  (** seed of the workload generator's own stream *)
  specs : W.Spec.t list;  (** traced run: the generated specs, in order *)
  homes : int list;  (** traced run: the home node each spec was generated for *)
  log : entry list;  (** traced run: every core input, oldest first *)
  chaos : chaos option;
  checks : (string * (unit, string) result) list;
}

let client_attempts = 20
let client_backoff n = Float.min 1_000.0 (50.0 *. (2.0 ** float_of_int (n - 1)))

let generator w rng =
  match w.kind with
  | Smallbank ->
    let g =
      W.Smallbank.create ~accounts_per_node:w.per_node ~nodes:3 ~remote_frac:w.remote_frac
        rng
    in
    (W.Smallbank.total_keys g, W.Smallbank.home_of_key g, W.Smallbank.gen g)
  | Tatp ->
    let g =
      W.Tatp.create ~subscribers_per_node:w.per_node ~nodes:3 ~remote_frac:w.remote_frac rng
    in
    (W.Tatp.total_keys g, W.Tatp.home_of_key g, W.Tatp.gen g)

(* Same seed, same stream: the ledger replays the generator from [wseed]. *)
let gen_of w wseed =
  let _, _, gen = generator w (Rng.create wseed) in
  gen

let initial_value w =
  match w.kind with Smallbank -> W.Smallbank.initial_value | Tatp -> W.Tatp.initial_value

let value_bytes w = Bytes.length (initial_value w)

let total_keys w =
  let n, _, _ = generator w (Rng.create 0L) in
  n

let attach_taps c log =
  let eng = Cluster.engine c in
  for i = 0 to Cluster.nodes c - 1 do
    let node = Cluster.node c i in
    OwnA.set_io_tap (Node.ownership_agent node) (fun input effs ->
        log := Own { at = Engine.now eng; node = i; input; effs } :: !log);
    ComA.set_io_tap (Node.commit_agent node) (fun input effs ->
        log := Com { at = Engine.now eng; node = i; input; effs } :: !log)
  done

let digest c =
  let eng = Cluster.engine c and fab = Cluster.fabric c in
  Printf.sprintf "c%d/r%d/a%d/e%d/t%h/m%d/b%d" (Cluster.total_committed c)
    (Cluster.total_ro_committed c) (Cluster.total_aborted c) (Engine.events_dispatched eng)
    (Engine.now eng) (Fabric.messages_sent fab) (Fabric.bytes_sent fab)

let run ?(traced = false) ?(check = true) ?(scale = 1.0) ?(population = 1.0) w ~seed =
  let w = scaled w ~scale ~population in
  let stop_us = warmup_us +. w.duration_us in
  let config = { (config w ~seed) with Config.record_history = traced } in
  let log = ref [] in
  let t0 = Unix.gettimeofday () in
  let c = Cluster.create ~config ~tracing:traced () in
  let eng = Cluster.engine c in
  (* Taps go on before populating, so the log opens with the seeding inputs
     a fresh core needs. *)
  if traced then attach_taps c log;
  let wseed = Rng.int64 (Engine.fork_rng eng) in
  let total_keys, home_of_key, gen = generator w (Rng.create wseed) in
  Cluster.populate_n c ~n:total_keys ~owner_of:home_of_key (fun _ ->
      Bytes.copy (initial_value w));
  let setup_s = Unix.gettimeofday () -. t0 in
  let monitor, nemesis =
    match w.crash with
    | None -> (None, None)
    | Some k ->
      let monitor = Chaos.Monitor.attach ~observed:w.drivers c in
      let schedule =
        Chaos.Schedule.v ~name:w.name ~seed
          (Chaos.Schedule.crash_restart ~node:k.victim ~at_us:k.at_us ~down_us:k.down_us)
      in
      (Some monitor, Some (Chaos.Nemesis.attach ~monitor c schedule))
  in
  let issued = ref 0 and committed = ref 0 and failed = ref 0 in
  let window = ref 0 and lat = Fbuf.create () in
  let specs = ref [] and homes = ref [] in
  let threads = config.Config.app_threads in
  List.iter
    (fun id ->
      let node = Cluster.node c id in
      for thread = 0 to threads - 1 do
        let rec loop () =
          if Engine.now eng < stop_us then begin
            let spec = gen ~home:id in
            if traced then begin
              specs := spec :: !specs;
              homes := id :: !homes
            end;
            incr issued;
            let issued_at = Engine.now eng in
            let rec attempt n =
              W.Spec.run_on_zeus node ~thread spec (function
                | Txn.Committed ->
                  incr committed;
                  let now = Engine.now eng in
                  if now >= warmup_us && now < stop_us then begin
                    incr window;
                    Fbuf.add lat (now -. issued_at)
                  end;
                  loop ()
                | Txn.Aborted _ when n < client_attempts ->
                  ignore (Engine.schedule eng ~after:(client_backoff n) (fun () -> attempt (n + 1)))
                | Txn.Aborted _ ->
                  incr failed;
                  loop ())
            in
            attempt 1
          end
        in
        ignore (Engine.schedule eng ~after:(0.01 *. float_of_int ((id * threads) + thread)) loop)
      done)
    w.drivers;
  let w0 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  Cluster.run c ~until_us:stop_us;
  Option.iter Chaos.Monitor.stop monitor;
  Cluster.run_quiesce c ();
  let run_s = Unix.gettimeofday () -. t1 in
  let minor_words = Gc.minor_words () -. w0 in
  let peak_rss_mb = Util.peak_rss_mb () in
  let stuck = !issued - !committed - !failed in
  (* Runs at one seed end in one state (the caller compares digests), so
     the full invariant scan can be left to one of them. *)
  let checks =
    (if check then [ ("invariants", Cluster.check_invariants c) ] else [])
    @ [
        ( "no stuck transactions",
          if stuck = 0 then Ok () else Error (Printf.sprintf "%d never completed" stuck) );
      ]
  in
  let chaos =
    match (monitor, nemesis, w.crash) with
    | Some monitor, Some nemesis, Some k ->
      let detection = Chaos.Report.detection_of_service (Cluster.membership c) in
      let report =
        Chaos.Report.of_monitor ~name:w.name ~fault_at_us:k.at_us
          ~restart_at_us:(k.at_us +. k.down_us) ~detection
          ~committed:(Cluster.total_committed c) ~aborted:(Cluster.total_aborted c) monitor
      in
      Some { report; nemesis_done = Chaos.Nemesis.done_ nemesis }
    | _ -> None
  in
  let checks =
    checks
    @
    match chaos with
    | None -> []
    | Some ch ->
      let r = ch.report in
      [
        ( "monitors ok",
          if r.Chaos.Report.monitors_ok then Ok ()
          else Error (String.concat "; " r.Chaos.Report.violations) );
        ("nemesis done", if ch.nemesis_done then Ok () else Error "schedule did not finish");
        ( "recovery measured",
          if r.Chaos.Report.recovery_us <> None then Ok ()
          else Error "goodput never recovered" );
      ]
  in
  {
    w;
    cluster = c;
    setup_s;
    run_s;
    peak_rss_mb;
    minor_words;
    issued = !issued;
    failed = !failed + stuck;
    window_commits = !window;
    latencies = Fbuf.sorted lat;
    stop_us;
    wseed;
    specs = List.rev !specs;
    homes = List.rev !homes;
    log = List.rev !log;
    chaos;
    checks;
  }

let committed_all r = Cluster.total_committed r.cluster + Cluster.total_ro_committed r.cluster
