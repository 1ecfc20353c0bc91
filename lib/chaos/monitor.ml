module Engine = Zeus_sim.Engine
module Metrics = Zeus_telemetry.Metrics
module Fabric = Zeus_net.Fabric
module Service = Zeus_membership.Service
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Table = Zeus_store.Table
module Obj = Zeus_store.Obj
module Types = Zeus_store.Types

let sample_us = 200.0
let window_us = 500.0
let grace_us = 4_000.0  (* steady-state guard after each fault *)
let recovery_frac = 0.9  (* recovery threshold vs the pre-fault mean *)
let baseline_windows = 8

module Itbl = Hashtbl.Make (Int)

(* Everything the invariant checks keep about one key, mutated in place
   with immediates: a steady-state sample allocates nothing, and no young
   block ever hangs off the (major-heap) key table. *)
type key_state = {
  mutable owners : int;  (* usable owners seen by the latest scan *)
  mutable vmax : int;  (* highest version over live copies; -1 when none *)
  mutable vvalid : int;  (* highest version over valid copies; -1 when none *)
  mutable watermark : int;  (* highest [vmax] seen while steady; -1 when none *)
  mutable suspect : int;  (* consecutive samples with more than one usable owner *)
  mutable stamp : int;  (* the scan that last saw the key *)
}

type t = {
  cluster : Cluster.t;
  observed : int list;
  started_at : float;
  mutable bins : int list;  (* newest first; current bin at the head *)
  mutable last_committed : int;
  mutable last_fault_at : float;
  mutable violations : string list;  (* newest first *)
  keys : key_state Itbl.t;
  mutable scan_no : int;
  mutable unseen : int;  (* records the latest sample found freed and unsuspected *)
  mutable visit : Obj.t -> unit;  (* [visit_obj t], allocated once *)
  mutable check : int -> key_state -> unit;  (* [check_key t], allocated once *)
  mutable stopped : bool;
  mutable sample_ev : Engine.event_id;  (* [Engine.no_event] when unarmed *)
  mutable window_ev : Engine.event_id;
  mutable sample_fn : unit -> unit;  (* [on_sample t], allocated once *)
  mutable window_fn : unit -> unit;  (* [on_window t], allocated once *)
  c_samples : Metrics.Counter.h;
  c_violations : Metrics.Counter.h;
}

let max_recorded_violations = 32

let engine t = Cluster.engine t.cluster

let observed_committed t =
  List.fold_left (fun acc i -> acc + Node.committed (Cluster.node t.cluster i)) 0 t.observed

let violate t fmt =
  Format.kasprintf
    (fun msg ->
      Metrics.Counter.incr t.c_violations;
      if List.length t.violations < max_recorded_violations then
        t.violations <-
          Printf.sprintf "[%.1fus] %s" (Engine.now (engine t)) msg :: t.violations)
    fmt

(* ---------- steady-state detection ---------------------------------------- *)

let rec all_live fabric svc i =
  i < 0 || (Fabric.is_alive fabric i && Service.is_live svc i && all_live fabric svc (i - 1))

let steady t =
  let c = t.cluster in
  let svc = Cluster.membership c in
  all_live (Cluster.fabric c) svc (Cluster.nodes c - 1)
  && Service.stable svc
  && Engine.now (engine t) >= t.last_fault_at +. grace_us

(* ---------- invariant sampling --------------------------------------------- *)

(* One pass over the live tables fills, per key, the number of live
   owners, the highest version held by any live copy, and the highest
   version held by a valid copy (-1 when no valid copy).  The watermark
   tracks the former: an invalidated follower already carries the
   in-flight version (the commit agent bumps [t_version] at R-INV), so
   max-over-valid-copies dips transiently under pipelined writes while
   max-over-all-copies is monotone in steady state. *)
let visit_obj t (obj : Obj.t) =
  let r =
    match Itbl.find t.keys obj.key with
    | r -> r
    | exception Not_found ->
      let r =
        { owners = 0; vmax = -1; vvalid = -1; watermark = -1; suspect = 0; stamp = -1 }
      in
      Itbl.add t.keys obj.key r;
      r
  in
  if r.stamp <> t.scan_no then begin
    r.stamp <- t.scan_no;
    r.owners <- 0;
    r.vmax <- -1;
    r.vvalid <- -1
  end;
  (* A stale owner mid-handover keeps role=Owner until its O-VAL drains
     through the in-order flow, but sits at o_state O_invalid and cannot
     commit; only a usable owner (role + O_valid) counts for the online
     single-owner check. *)
  if Obj.is_owner obj && obj.o_state = Types.O_valid then r.owners <- r.owners + 1;
  if obj.t_version > r.vmax then r.vmax <- obj.t_version;
  if obj.t_state = Types.T_valid && obj.t_version > r.vvalid then r.vvalid <- obj.t_version

let scan t =
  t.scan_no <- t.scan_no + 1;
  let c = t.cluster in
  let fabric = Cluster.fabric c in
  for i = 0 to Cluster.nodes c - 1 do
    if Fabric.is_alive fabric i then Table.iter (Node.table (Cluster.node c i)) t.visit
  done

let check_key t key r =
  if r.stamp <> t.scan_no then begin
    (* A freed key's watermark must not outlive it. *)
    r.watermark <- -1;
    if r.suspect = 0 then t.unseen <- t.unseen + 1
  end
  else begin
    (* Single owner: flag only when the same key shows more than one live
       owner in two consecutive samples — a handover caught
       mid-arbitration resolves within microseconds, a real violation
       persists. *)
    if r.owners > 1 then begin
      r.suspect <- r.suspect + 1;
      if r.suspect = 2 then violate t "key %d: %d live owners (persisted)" key r.owners
    end
    else r.suspect <- 0;
    (* Version monotonicity: the highest version held by any live copy
       must never regress while the cluster is steady — a regression
       means a committed (or reliably in-flight) write vanished. *)
    if r.vmax >= 0 then begin
      if r.vmax < r.watermark then
        violate t "key %d: valid-version watermark regressed %d -> %d" key r.watermark
          r.vmax;
      if r.vmax > r.watermark then r.watermark <- r.vmax
    end
  end

(* A record for a key that is gone and not under suspicion says nothing a
   missing record would not; drop such records once keys are freed. *)
let prune t =
  let gone =
    Itbl.fold
      (fun key r acc -> if r.stamp <> t.scan_no && r.suspect = 0 then key :: acc else acc)
      t.keys []
  in
  List.iter (Itbl.remove t.keys) gone

let sample_invariants t =
  Metrics.Counter.incr t.c_samples;
  scan t;
  t.unseen <- 0;
  Itbl.iter t.check t.keys;
  if t.unseen > 0 then prune t

(* Leaving steady state forgets every multi-owner suspicion. *)
let reset_suspects t = Itbl.iter (fun _ r -> r.suspect <- 0) t.keys

(* ---------- sampling loops ------------------------------------------------- *)

let arm_sample t = t.sample_ev <- Engine.schedule (engine t) ~after:sample_us t.sample_fn
let arm_window t = t.window_ev <- Engine.schedule (engine t) ~after:window_us t.window_fn

let on_sample t =
  t.sample_ev <- Engine.no_event;
  if not t.stopped then begin
    if steady t then sample_invariants t else reset_suspects t;
    arm_sample t
  end

let on_window t =
  t.window_ev <- Engine.no_event;
  if not t.stopped then begin
    let cur = observed_committed t in
    (* A rejoined node's counters reset with it; clamp so the timeline
       never goes negative. *)
    t.bins <- max 0 (cur - t.last_committed) :: t.bins;
    t.last_committed <- cur;
    arm_window t
  end

let attach ?observed cluster =
  let observed =
    Option.value observed ~default:(List.init (Cluster.nodes cluster) Fun.id)
  in
  let m = Zeus_telemetry.Hub.metrics (Cluster.telemetry cluster) in
  let t =
    {
      cluster;
      observed;
      started_at = Engine.now (Cluster.engine cluster);
      bins = [];
      last_committed = 0;
      last_fault_at = Float.neg_infinity;
      violations = [];
      keys = Itbl.create 256;
      scan_no = 0;
      unseen = 0;
      visit = ignore;
      check = (fun _ _ -> ());
      stopped = false;
      sample_ev = Engine.no_event;
      window_ev = Engine.no_event;
      sample_fn = ignore;
      window_fn = ignore;
      c_samples = Metrics.Counter.v m "chaos.monitor.samples";
      c_violations = Metrics.Counter.v m "chaos.monitor.violations";
    }
  in
  t.visit <- visit_obj t;
  t.check <- check_key t;
  t.sample_fn <- (fun () -> on_sample t);
  t.window_fn <- (fun () -> on_window t);
  t.last_committed <- observed_committed t;
  arm_sample t;
  arm_window t;
  t

let note_fault t = t.last_fault_at <- Engine.now (engine t)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* Cancelling [no_event] is a no-op. *)
    Engine.cancel (engine t) t.sample_ev;
    Engine.cancel (engine t) t.window_ev;
    t.sample_ev <- Engine.no_event;
    t.window_ev <- Engine.no_event
  end

let samples t = Metrics.Counter.get t.c_samples
let violations t = List.rev t.violations
let ok t = t.violations = []

let timeline t =
  List.rev
    (List.mapi
       (fun i count ->
         let newest = List.length t.bins - 1 in
         (t.started_at +. (float_of_int (newest - i) *. window_us), count))
       t.bins)

let goodput t =
  List.map (fun (at, n) -> (at, float_of_int n /. window_us)) (timeline t)

(* ---------- recovery extraction -------------------------------------------- *)

let recovery_of_timeline ~window_us ~frac ~baseline_windows ~fault_at_us tl =
  let pre = List.filter (fun (at, _) -> at +. window_us <= fault_at_us) tl in
  let pre = List.filteri (fun i _ -> i >= List.length pre - baseline_windows) pre in
  if pre = [] then None
  else begin
    let baseline =
      List.fold_left (fun acc (_, n) -> acc +. float_of_int n) 0.0 pre
      /. float_of_int (List.length pre)
    in
    if baseline <= 0.0 then None
    else begin
      let target = frac *. baseline in
      (* Recovered at the first of two consecutive windows back at the
         target rate (one good window alone can be a retry burst). *)
      let post = List.filter (fun (at, _) -> at >= fault_at_us) tl in
      let rec find = function
        | (at, n) :: ((_, n') :: _ as rest) ->
          if float_of_int n >= target && float_of_int n' >= target then
            Some (at +. window_us -. fault_at_us)
          else find rest
        | [ (at, n) ] ->
          if float_of_int n >= target then Some (at +. window_us -. fault_at_us) else None
        | [] -> None
      in
      find post
    end
  end

let recovery_us t ~fault_at_us =
  recovery_of_timeline ~window_us ~frac:recovery_frac ~baseline_windows ~fault_at_us
    (timeline t)

(* ---------- final convergence check ---------------------------------------- *)

let check_final t =
  match violations t with
  | v :: _ -> Error (Printf.sprintf "online monitor: %s" v)
  | [] -> (
    match Cluster.check_invariants t.cluster with
    | Error _ as e -> e
    | Ok () ->
      (* Replica convergence: after every fault heals and the run drains,
         each surviving key must retain at least one valid copy — a key
         whose copies are all stuck invalid lost its validation and will
         wedge every future transaction that touches it. *)
      scan t;
      let stuck = ref None in
      Itbl.iter
        (fun key r ->
          if r.stamp = t.scan_no && r.vvalid < 0 && !stuck = None then stuck := Some key)
        t.keys;
      (match !stuck with
      | Some key -> Error (Printf.sprintf "key %d: no valid copy after quiesce" key)
      | None -> Ok ()))
