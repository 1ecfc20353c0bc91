module Sim = Zeus_sim.Engine
module Resource = Zeus_sim.Resource
module Rng = Zeus_sim.Rng
module Metrics = Zeus_telemetry.Metrics
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module Config = Zeus_core.Config
module Spec = Zeus_workload.Spec

type txn_ref = { coord : int; seq : int }

type Zeus_net.Msg.payload +=
  | B_read of { txn : txn_ref; keys : int list; one_sided : bool }
  | B_read_rep of { txn : txn_ref; versions : (int * int) list }
  | B_lock of { txn : txn_ref; entries : (int * int) list }  (* key, expected ver *)
  | B_lock_rep of { txn : txn_ref; ok : bool }
  | B_validate of { txn : txn_ref; entries : (int * int) list }
  | B_validate_rep of { txn : txn_ref; ok : bool }
  | B_log of { txn : txn_ref; keys : int list; bytes : int }
  | B_log_rep of { txn : txn_ref }
  | B_ping of { txn : txn_ref }  (* profile extra commit rounds *)
  | B_ping_rep of { txn : txn_ref }
  | B_commit of { txn : txn_ref; keys : int list }
  | B_commit_rep of { txn : txn_ref }
  | B_abort of { txn : txn_ref; keys : int list }

type entry = { mutable version : int; mutable locked_by : txn_ref option }

type txn_state = {
  tref : txn_ref;
  spec : Spec.t;
  mutable awaiting : int;
  mutable phase_ok : bool;
  mutable versions : (int * int) list;
  mutable locked : (int * int list) list;  (* primary node, keys locked there *)
  mutable on_phase_done : bool -> unit;
  mutable attempt : int;
  k : bool -> unit;
}

type node = {
  id : int;
  ds : Resource.t;
  app : Resource.t;
  locks : (int, entry) Hashtbl.t;
  mutable txn_seq : int;
  txns : (int, txn_state) Hashtbl.t;
}

type t = {
  engine : Sim.t;
  transport : Transport.t;
  config : Config.t;
  profile : Profile.t;
  primary_of : int -> int;
  nodes : node array;
  rng : Rng.t;
  metrics : Metrics.t;
  c_committed : Metrics.Counter.h;
  c_aborted : Metrics.Counter.h;
  c_retries : Metrics.Counter.h;
}

let engine t = t.engine
let profile t = t.profile
let metrics t = t.metrics
let committed t = Metrics.Counter.get t.c_committed
let aborted t = Metrics.Counter.get t.c_aborted

let entry_of t node key =
  match Hashtbl.find_opt t.nodes.(node).locks key with
  | Some e -> e
  | None ->
    let e = { version = 1; locked_by = None } in
    Hashtbl.replace t.nodes.(node).locks key e;
    e

let backups t key =
  let p = t.primary_of key in
  List.init
    (min (t.config.Config.replication_degree - 1) (t.config.Config.nodes - 1))
    (fun i -> (p + i + 1) mod t.config.Config.nodes)

let group_by_primary t keys =
  List.fold_left
    (fun acc key ->
      let p = t.primary_of key in
      match List.assoc_opt p acc with
      | Some l ->
        l := key :: !l;
        acc
      | None -> (p, ref [ key ]) :: acc)
    [] keys
  |> List.map (fun (p, l) -> (p, !l))

let send t ~src ~dst ~size payload = Transport.send t.transport ~src ~dst ~size payload

(* ---------- primary-side handlers ----------------------------------------- *)

let handle_read t ~node ~src (txn : txn_ref) keys =
  let versions = List.map (fun key -> (key, (entry_of t node key).version)) keys in
  send t ~src:node ~dst:src ~size:(16 + (16 * List.length versions)) (B_read_rep { txn; versions })

let try_lock t ~node (txn : txn_ref) entries =
  let ok =
    List.for_all
      (fun (key, expected) ->
        let e = entry_of t node key in
        (e.locked_by = None || e.locked_by = Some txn) && e.version = expected)
      entries
  in
  if ok then
    List.iter (fun (key, _) -> (entry_of t node key).locked_by <- Some txn) entries;
  ok

let validate_ok t ~node (txn : txn_ref) entries =
  List.for_all
    (fun (key, expected) ->
      let e = entry_of t node key in
      e.version = expected && (e.locked_by = None || e.locked_by = Some txn))
    entries

let apply_commit t ~node (txn : txn_ref) keys =
  List.iter
    (fun key ->
      let e = entry_of t node key in
      if e.locked_by = Some txn then begin
        e.version <- e.version + 1;
        e.locked_by <- None
      end)
    keys

let release_locks t ~node (txn : txn_ref) keys =
  List.iter
    (fun key ->
      let e = entry_of t node key in
      if e.locked_by = Some txn then e.locked_by <- None)
    keys

(* ---------- coordinator ---------------------------------------------------- *)

let phase_reply t (txn : txn_ref) ~ok =
  let coord = t.nodes.(txn.coord) in
  match Hashtbl.find_opt coord.txns txn.seq with
  | None -> ()
  | Some st ->
    if not ok then st.phase_ok <- false;
    st.awaiting <- st.awaiting - 1;
    if st.awaiting = 0 then st.on_phase_done st.phase_ok

let record_versions t (txn : txn_ref) versions =
  let coord = t.nodes.(txn.coord) in
  match Hashtbl.find_opt coord.txns txn.seq with
  | None -> ()
  | Some st -> st.versions <- versions @ st.versions

(* Run one phase: [local] performs the local part immediately and returns
   its success; [groups] are (dst, sender) pairs where sender dispatches the
   message.  [done_] is called once every reply (plus the local part) is in. *)
let run_phase _t st ~locals ~remotes ~done_ =
  st.awaiting <- List.length remotes + 1;
  st.phase_ok <- true;
  st.on_phase_done <- done_;
  List.iter (fun send_fn -> send_fn ()) remotes;
  let local_ok = List.for_all (fun f -> f ()) locals in
  if not local_ok then st.phase_ok <- false;
  st.awaiting <- st.awaiting - 1;
  if st.awaiting = 0 then st.on_phase_done st.phase_ok

let finish t st ~ok =
  let coord = t.nodes.(st.tref.coord) in
  Hashtbl.remove coord.txns st.tref.seq;
  Metrics.Counter.incr (if ok then t.c_committed else t.c_aborted);
  st.k ok

let backoff t attempt =
  let d = Config.backoff_base_us *. (2.0 ** float_of_int (min attempt 10)) in
  Float.min d Config.backoff_max_us *. (0.5 +. Rng.float t.rng 1.0)

let rec attempt_txn t ~home ~spec ~attempt k =
  let coord = t.nodes.(home) in
  let seq = coord.txn_seq in
  coord.txn_seq <- seq + 1;
  let tref = { coord = home; seq } in
  let st =
    {
      tref;
      spec;
      awaiting = 0;
      phase_ok = true;
      versions = [];
      locked = [];
      on_phase_done = (fun _ -> ());
      attempt;
      k;
    }
  in
  Hashtbl.replace coord.txns seq st;
  (* Execution (read) phase after the transaction logic's compute time. *)
  Resource.submit coord.app
    ~service:(spec.Spec.exec_us *. t.profile.Profile.exec_scale)
    (fun () -> read_phase t st)

and retry t st =
  let home = st.tref.coord in
  (* Release any locks we hold. *)
  List.iter
    (fun (node, keys) ->
      if node = home then release_locks t ~node st.tref keys
      else send t ~src:home ~dst:node ~size:48 (B_abort { txn = st.tref; keys }))
    st.locked;
  Hashtbl.remove t.nodes.(home).txns st.tref.seq;
  Metrics.Counter.incr t.c_retries;
  if st.attempt >= Config.max_retries then begin
    Metrics.Counter.incr t.c_aborted;
    st.k false
  end
  else
    ignore
      (Sim.schedule t.engine ~after:(backoff t st.attempt) (fun () ->
           attempt_txn t ~home ~spec:st.spec ~attempt:(st.attempt + 1) st.k))

and read_phase t st =
  let home = st.tref.coord in
  let keys = st.spec.Spec.reads @ st.spec.Spec.writes in
  let groups = group_by_primary t keys in
  let locals, remote_groups = List.partition (fun (p, _) -> p = home) groups in
  let locals =
    List.map
      (fun (_, keys) () ->
        st.versions <-
          List.map (fun key -> (key, (entry_of t home key).version)) keys @ st.versions;
        true)
      locals
  in
  let remotes =
    List.map
      (fun (p, keys) () ->
        send t ~src:home ~dst:p
          ~size:(32 + (8 * List.length keys))
          (B_read { txn = st.tref; keys; one_sided = t.profile.Profile.one_sided_reads }))
      remote_groups
  in
  run_phase t st ~locals ~remotes ~done_:(fun ok ->
      if not ok then retry t st else lock_validate_phase t st)

and lock_validate_phase t st =
  if st.spec.Spec.read_only then validate_phase t st ~after:(fun ok ->
      if ok then finish t st ~ok:true else retry t st)
  else begin
    let home = st.tref.coord in
    let wgroups = group_by_primary t st.spec.Spec.writes in
    st.locked <- wgroups;
    let entries_of keys =
      List.map (fun key -> (key, List.assoc key st.versions)) keys
    in
    let locals, remote_groups = List.partition (fun (p, _) -> p = home) wgroups in
    let locals =
      List.map (fun (_, keys) () -> try_lock t ~node:home st.tref (entries_of keys)) locals
    in
    let remotes =
      List.map
        (fun (p, keys) () ->
          send t ~src:home ~dst:p
            ~size:(32 + (16 * List.length keys))
            (B_lock { txn = st.tref; entries = entries_of keys }))
        remote_groups
    in
    let after_locks ok =
      if not ok then retry t st
      else if t.profile.Profile.combined_lock_validate then log_phase t st
      else validate_phase t st ~after:(fun ok -> if ok then log_phase t st else retry t st)
    in
    if t.profile.Profile.combined_lock_validate then begin
      (* FaSST: validation of read keys rides the same round. *)
      let vgroups = group_by_primary t st.spec.Spec.reads in
      let vlocals, vremotes = List.partition (fun (p, _) -> p = home) vgroups in
      let locals =
        locals
        @ List.map
            (fun (_, keys) () -> validate_ok t ~node:home st.tref (entries_of keys))
            vlocals
      in
      let remotes =
        remotes
        @ List.map
            (fun (p, keys) () ->
              send t ~src:home ~dst:p
                ~size:(32 + (16 * List.length keys))
                (B_validate { txn = st.tref; entries = entries_of keys }))
            vremotes
      in
      run_phase t st ~locals ~remotes ~done_:(fun ok ->
          if ok then log_phase t st else retry t st)
    end
    else run_phase t st ~locals ~remotes ~done_:after_locks
  end

and validate_phase t st ~after =
  let home = st.tref.coord in
  let keys =
    if st.spec.Spec.read_only then st.spec.Spec.reads
    else st.spec.Spec.reads @ st.spec.Spec.writes
  in
  if st.spec.Spec.read_only && List.length keys <= 1 then after true
  else begin
    let entries_of keys = List.map (fun key -> (key, List.assoc key st.versions)) keys in
    let groups = group_by_primary t keys in
    let locals, remote_groups = List.partition (fun (p, _) -> p = home) groups in
    let locals =
      List.map (fun (_, ks) () -> validate_ok t ~node:home st.tref (entries_of ks)) locals
    in
    let remotes =
      List.map
        (fun (p, ks) () ->
          send t ~src:home ~dst:p
            ~size:(32 + (16 * List.length ks))
            (B_validate { txn = st.tref; entries = entries_of ks }))
        remote_groups
    in
    run_phase t st ~locals ~remotes ~done_:after
  end

and log_phase t st =
  let home = st.tref.coord in
  (* One log record per backup node covering its keys. *)
  let by_backup = Hashtbl.create 4 in
  List.iter
    (fun key ->
      List.iter
        (fun b ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_backup b) in
          Hashtbl.replace by_backup b (key :: cur))
        (backups t key))
    st.spec.Spec.writes;
  let remotes =
    Hashtbl.fold
      (fun b keys acc ->
        if b = home then acc
        else
          (fun () ->
            send t ~src:home ~dst:b
              ~size:(64 + (st.spec.Spec.payload * List.length keys))
              (B_log { txn = st.tref; keys; bytes = st.spec.Spec.payload }))
          :: acc)
      by_backup []
  in
  run_phase t st ~locals:[] ~remotes ~done_:(fun ok ->
      if not ok then retry t st else extra_phase t st t.profile.Profile.commit_extra_rtts)

and extra_phase t st n =
  if n <= 0 then commit_phase t st
  else begin
    let home = st.tref.coord in
    let peers =
      List.filter (fun (p, _) -> p <> home) (group_by_primary t st.spec.Spec.writes)
    in
    let remotes =
      List.map
        (fun (p, _) () -> send t ~src:home ~dst:p ~size:32 (B_ping { txn = st.tref }))
        peers
    in
    run_phase t st ~locals:[] ~remotes ~done_:(fun _ -> extra_phase t st (n - 1))
  end

and commit_phase t st =
  let home = st.tref.coord in
  let groups = group_by_primary t st.spec.Spec.writes in
  let locals, remote_groups = List.partition (fun (p, _) -> p = home) groups in
  let locals =
    List.map
      (fun (_, keys) () ->
        apply_commit t ~node:home st.tref keys;
        true)
      locals
  in
  let remotes =
    List.map
      (fun (p, keys) () ->
        send t ~src:home ~dst:p
          ~size:(32 + (8 * List.length keys))
          (B_commit { txn = st.tref; keys }))
      remote_groups
  in
  run_phase t st ~locals ~remotes ~done_:(fun _ -> finish t st ~ok:true)

(* ---------- dispatch ------------------------------------------------------- *)

let handle t ~node ~src payload =
  match payload with
  | B_read { txn; keys; one_sided = _ } -> handle_read t ~node ~src txn keys
  | B_read_rep { txn; versions } ->
    record_versions t txn versions;
    phase_reply t txn ~ok:true
  | B_lock { txn; entries } ->
    let ok = try_lock t ~node txn entries in
    send t ~src:node ~dst:src ~size:32 (B_lock_rep { txn; ok })
  | B_lock_rep { txn; ok } -> phase_reply t txn ~ok
  | B_validate { txn; entries } ->
    let ok = validate_ok t ~node txn entries in
    send t ~src:node ~dst:src ~size:32 (B_validate_rep { txn; ok })
  | B_validate_rep { txn; ok } -> phase_reply t txn ~ok
  | B_log { txn; keys = _; bytes = _ } ->
    send t ~src:node ~dst:src ~size:32 (B_log_rep { txn })
  | B_log_rep { txn } -> phase_reply t txn ~ok:true
  | B_ping { txn } -> send t ~src:node ~dst:src ~size:32 (B_ping_rep { txn })
  | B_ping_rep { txn } -> phase_reply t txn ~ok:true
  | B_commit { txn; keys } ->
    apply_commit t ~node txn keys;
    send t ~src:node ~dst:src ~size:32 (B_commit_rep { txn })
  | B_commit_rep { txn } -> phase_reply t txn ~ok:true
  | B_abort { txn; keys } -> release_locks t ~node txn keys
  | _ -> ()

let payload_cost t payload =
  let c = Config.msg_proc_us *. t.profile.Profile.msg_scale in
  match payload with
  | B_read { one_sided = true; _ } ->
    (* RDMA one-sided read: the remote CPU is not involved; the NIC serves
       it.  Model a token DMA cost. *)
    0.02
  | B_read { keys; _ } ->
    c +. (t.profile.Profile.read_handler_us *. float_of_int (List.length keys))
  | B_read_rep { versions; _ } ->
    c +. (t.profile.Profile.read_finish_us *. float_of_int (List.length versions))
  | B_log { keys; bytes; _ } ->
    c +. (float_of_int (bytes * List.length keys) *. Config.byte_proc_us)
  | _ -> c

let create ?(profile = Profile.fasst) ?(config = Config.default) ~primary_of () =
  let engine = Sim.create ~seed:config.Config.seed () in
  let fabric = Fabric.create engine ~nodes:config.Config.nodes config.Config.fabric in
  let transport = Transport.create ~config:config.Config.transport fabric in
  let nodes =
    Array.init config.Config.nodes (fun id ->
        {
          id;
          ds = Resource.create engine ~servers:Config.ds_threads;
          app = Resource.create engine ~servers:config.Config.app_threads;
          locks = Hashtbl.create 4096;
          txn_seq = 0;
          txns = Hashtbl.create 256;
        })
  in
  let metrics = Metrics.create () in
  let t =
    {
      engine;
      transport;
      config;
      profile;
      primary_of;
      nodes;
      rng = Sim.fork_rng engine;
      metrics;
      c_committed = Metrics.Counter.v metrics "baseline.committed";
      c_aborted = Metrics.Counter.v metrics "baseline.aborted";
      c_retries = Metrics.Counter.v metrics "baseline.retries";
    }
  in
  Array.iter
    (fun node ->
      Transport.set_handler transport node.id (fun ~src payload ->
          Resource.submit node.ds ~service:(payload_cost t payload) (fun () ->
              handle t ~node:node.id ~src payload)))
    nodes;
  t

let submit t ~home spec k = attempt_txn t ~home ~spec ~attempt:0 k

let run_load t ?coroutines ~warmup_us ~duration_us ~gen () =
  let threads = Option.value coroutines ~default:(16 * t.config.Config.app_threads) in
  Zeus_workload.Driver.measure t.engine
    ~nodes:(List.init t.config.Config.nodes Fun.id)
    ~threads ~warmup_us ~duration_us
    (fun home ~thread:_ done_ -> submit t ~home (gen ~home) done_)
