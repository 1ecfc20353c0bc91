type detection = {
  d_mode : string;
  d_heartbeats : int;
  d_suspicions : int;
  d_retractions : int;
  d_false_suspicions : int;
  d_fences : int;
  d_evictions_averted : int;
  d_views_installed : int;
}

let detection_of_service svc =
  let open Zeus_membership.Service in
  let s = det_stats svc in
  {
    d_mode = (match mode svc with Oracle -> "oracle" | Detected -> "detected");
    d_heartbeats = s.heartbeats;
    d_suspicions = s.suspicions;
    d_retractions = s.retractions;
    d_false_suspicions = s.false_suspicions;
    d_fences = s.fences;
    d_evictions_averted = s.evictions_averted;
    d_views_installed = s.views_installed;
  }

type scenario = {
  name : string;
  fault_at_us : float;
  restart_at_us : float option;
  baseline_mtps : float;
  dip_mtps : float;
  recovery_us : float option;
  committed : int;
  aborted : int;
  monitors_ok : bool;
  violations : string list;
  detection : detection option;
  timeline : (float * float) list;
}

type t = { quick : bool; seed : int64; scenarios : scenario list }

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let of_monitor ~name ~fault_at_us ?restart_at_us ?detection ~committed ~aborted monitor
    =
  let tl = Monitor.goodput monitor in
  let pre =
    List.filter (fun (at, _) -> at +. Monitor.window_us <= fault_at_us) tl
  in
  let pre =
    List.filteri (fun i _ -> i >= List.length pre - Monitor.baseline_windows) pre
  in
  let baseline_mtps = mean (List.map snd pre) in
  let recovery_us = Monitor.recovery_us monitor ~fault_at_us in
  (* Worst window inside the outage: from the fault until recovery (or the
     end of the timeline when goodput never came back). *)
  let outage_end =
    match recovery_us with Some r -> fault_at_us +. r | None -> Float.infinity
  in
  let dip =
    List.filter_map
      (fun (at, g) -> if at >= fault_at_us && at < outage_end then Some g else None)
      tl
  in
  let dip_mtps = match dip with [] -> baseline_mtps | _ -> List.fold_left Float.min Float.infinity dip in
  let monitors_ok = Result.is_ok (Monitor.check_final monitor) in
  let violations =
    match Monitor.check_final monitor with
    | Ok () -> []
    | Error e -> [ e ]
  in
  {
    name;
    fault_at_us;
    restart_at_us;
    baseline_mtps;
    dip_mtps;
    recovery_us;
    committed;
    aborted;
    monitors_ok;
    violations;
    detection;
    timeline = tl;
  }

(* ---------- JSON ----------------------------------------------------------- *)

module J = Zeus_telemetry.Jsonv

let detection_to_json d =
  J.Obj
    [
      ("mode", J.Str d.d_mode); ("heartbeats", J.int d.d_heartbeats);
      ("suspicions", J.int d.d_suspicions); ("retractions", J.int d.d_retractions);
      ("false_suspicions", J.int d.d_false_suspicions); ("fences", J.int d.d_fences);
      ("evictions_averted", J.int d.d_evictions_averted);
      ("views_installed", J.int d.d_views_installed);
    ]

let scenario_to_json s =
  J.Obj
    [
      ("name", J.Str s.name); ("fault_at_us", J.num s.fault_at_us);
      ("restart_at_us", J.opt J.num s.restart_at_us); ("baseline_mtps", J.num s.baseline_mtps);
      ("dip_mtps", J.num s.dip_mtps); ("recovery_us", J.opt J.num s.recovery_us);
      ("committed", J.int s.committed); ("aborted", J.int s.aborted);
      ("monitors_ok", J.Bool s.monitors_ok);
      ("violations", J.Arr (List.map (fun v -> J.Str v) s.violations));
      ("detection", J.opt detection_to_json s.detection);
      ("timeline", J.Arr (List.map (fun (at, g) -> J.Arr [ J.num at; J.num g ]) s.timeline));
    ]

let to_json t =
  J.Obj
    [
      ("quick", J.Bool t.quick); ("seed", J.num (Int64.to_float t.seed));
      ("scenarios", J.Arr (List.map scenario_to_json t.scenarios));
    ]
