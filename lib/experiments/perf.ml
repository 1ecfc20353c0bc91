(** Wall-clock performance harness (the perf trajectory, DESIGN.md §12).

    Everything else in this directory measures {e protocol} metrics in
    virtual time; this experiment measures the {e simulator itself} in
    wall-clock time, since the event loop is what bounds every sweep we
    can afford to run.  Two measurements:

    - {e smallbank run}: the transport ablation's acceptance workload
      (Smallbank, 3 nodes, default fabric, quick-scale population) run for
      a fixed virtual duration; reported as simulator events dispatched
      per wall-clock second plus GC allocation per event.  Repeated a few
      times on fresh clusters, best repetition kept (wall-clock noise is
      one-sided).  Each repetition is bracketed by [Gc.minor ()], so the
      words promoted to the major heap per event repeat from run to run
      and measure how much short-lived work old blocks keep alive
      (DESIGN.md §12, "no promotion cascades").  Compared against the checked-in
      baseline ([bench/perf_baseline.json]) — the perf-smoke CI gate fails
      on a > 25 % events/sec regression, on words/event more than 5 %
      above the baseline's, or on promoted words/event more than 10 %
      above it;
    - {e populate}: a TATP-shaped store (3 nodes, quick-scale population)
      seeded through [Cluster.populate_n]; reported as set-up seconds
      (best of the repeats), live heap words per key after
      [Gc.full_major] (the per-key memory budget of DESIGN.md §12), and
      words allocated per key while seeding, which also counts the
      garbage a seeding pass leaves (arrays discarded as they grow) that
      live words cannot see.  The perf-smoke gate fails on either
      per-key figure more than 5 % above the baseline's;
    - {e sweep scaling}: a fig7-style handover sweep run twice through
      {!Sweep.map} — [-j 1] and [-j 4] — reporting the wall-clock ratio
      and checking the per-point results are bit-identical (committed
      counts and final virtual clocks), i.e. that parallelism never leaks
      into simulation results. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module J = Zeus_telemetry.Jsonv
module W = Zeus_workload

type run_stats = {
  wall_s : float;
  events : int;
  events_per_sec : float;
  committed : int;
  sim_us : float;  (** virtual time simulated in the measured window *)
  minor_words : float;  (** GC words allocated during the run ([Gc.minor_words]) *)
  words_per_event : float;
  promoted_words : float;  (** words promoted by the minor GC during the run *)
  promoted_per_event : float;
}

type populate_stats = {
  keys : int;
  setup_s : float;  (** wall-clock seconds of [Cluster.populate_n], best repeat *)
  live_words_per_key : float;
      (** live major-heap words the populated store adds, per key *)
  alloc_words_per_key : float;
      (** words allocated while seeding (minor plus direct major), per key *)
}

type results = {
  quick : bool;
  repeats : int;
  cores : int;  (** [Domain.recommended_domain_count] on this machine *)
  smallbank : run_stats;
  baseline_events_per_sec : float option;
      (** events/sec recorded in [bench/perf_baseline.json] *)
  speedup : float option;  (** smallbank events/sec vs that baseline *)
  regression_ok : bool;  (** speedup >= 0.75 (or no baseline to compare) *)
  baseline_words_per_event : float option;
      (** words/event recorded in [bench/perf_baseline.json] *)
  words_ok : bool;
      (** words/event <= 1.05 x the baseline's (or no baseline to compare) *)
  baseline_promoted_per_event : float option;
      (** promoted words/event recorded in [bench/perf_baseline.json] *)
  promoted_ok : bool;
      (** promoted words/event <= 1.10 x the baseline's (or no baseline) *)
  populate : populate_stats;
  baseline_live_words_per_key : float option;
      (** live words/key recorded in [bench/perf_baseline.json] *)
  live_words_ok : bool;
      (** live words/key <= 1.05 x the baseline's (or no baseline) *)
  baseline_alloc_words_per_key : float option;
      (** allocated words/key recorded in [bench/perf_baseline.json] *)
  alloc_words_ok : bool;
      (** allocated words/key <= 1.05 x the baseline's (or no baseline) *)
  sweep_points : int;
  sweep_jobs : int;
  sweep_j1_wall_s : float;
  sweep_jn_wall_s : float;
  sweep_speedup : float;  (** j1 wall / jN wall *)
  sweep_identical : bool;
      (** per-point (committed, final clock, events) identical across -j *)
}

(* ---- smallbank events/sec ---- *)

let smallbank_run ~duration_us =
  let s = Exp.scale_of ~quick:true in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node
      ~nodes:config.Config.nodes ~remote_frac:0.0 rng
  in
  W.Smallbank.populate w cluster;
  let issue = W.Spec.issue (W.Smallbank.gen w) in
  let eng = Cluster.engine cluster in
  (* Start and end on an empty minor heap, so [promoted_words] counts
     exactly what this run's collections copied. *)
  Gc.minor ();
  (* [Gc.minor_words ()] reads the allocation pointer; on OCaml 5 the
     [quick_stat] counter only advances at minor collections. *)
  let m0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r =
    W.Driver.run cluster ~warmup_us:s.Exp.warmup_us ~duration_us ~issue ()
  in
  let t1 = Unix.gettimeofday () in
  let minor = Gc.minor_words () -. m0 in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let wall_s = Float.max (t1 -. t0) 1e-9 in
  let events = Engine.events_dispatched eng in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let per_event x = if events = 0 then 0.0 else x /. float_of_int events in
  {
    wall_s;
    events;
    events_per_sec = float_of_int events /. wall_s;
    committed = r.W.Driver.committed;
    sim_us = Engine.now eng;
    minor_words = minor;
    words_per_event = per_event minor;
    promoted_words = promoted;
    promoted_per_event = per_event promoted;
  }

let best_smallbank ~repeats ~duration_us =
  let best = ref (smallbank_run ~duration_us) in
  for _ = 2 to repeats do
    let r = smallbank_run ~duration_us in
    if r.events_per_sec > !best.events_per_sec then best := r
  done;
  !best

(* ---- populate: per-key set-up time and memory ---- *)

(* Words allocated so far: minor words plus words allocated directly in
   the major heap.  OCaml 5.1 adds a direct major allocation to
   [major_words] only at a minor collection, so one is forced first; the
   words it promotes count in both [major_words] and [promoted_words] and
   cancel.  Exact while the seeding pass fits the minor heap (the 16 Mw
   [zeus_cli] sets), so no collection runs inside it. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let populate_run () =
  let s = Exp.scale_of ~quick:true in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let w =
    W.Tatp.create ~subscribers_per_node:s.Exp.objects_per_node ~nodes:config.Config.nodes
      (Engine.fork_rng (Cluster.engine cluster))
  in
  let keys = W.Tatp.total_keys w in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let alloc0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  W.Tatp.populate w cluster;
  let setup_s = Unix.gettimeofday () -. t0 in
  let alloc1 = allocated_words () in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity cluster);
  let per_key x = x /. float_of_int keys in
  {
    keys;
    setup_s;
    live_words_per_key = per_key (float_of_int (live1 - live0));
    alloc_words_per_key = per_key (alloc1 -. alloc0);
  }

let best_populate ~repeats =
  let best = ref (populate_run ()) in
  for _ = 2 to repeats do
    let r = populate_run () in
    if r.setup_s < !best.setup_s then best := r
  done;
  !best

(* ---- checked-in baseline ---- *)

let baseline_path = "bench/perf_baseline.json"

(* [(events_per_sec, words_per_event, promoted_per_event,
   live_words_per_key, alloc_words_per_key)], each [None] when not
   recorded. *)
let read_baseline () =
  if not (Sys.file_exists baseline_path) then (None, None, None, None, None)
  else
    let ic = open_in_bin baseline_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.parse s with
    | Error _ -> (None, None, None, None, None)
    | Ok v ->
      let num key = Option.bind (J.member key v) J.to_float in
      ( num "events_per_sec",
        num "words_per_event",
        num "promoted_per_event",
        num "live_words_per_key",
        num "alloc_words_per_key" )

(* ---- sweep scaling ---- *)

(* Four equal-cost fig7-style points: balanced work is what a [-j 4]
   speedup measurement wants. *)
let sweep_specs = [ 0.0; 0.1; 0.2; 0.3 ]

let sweep_once ~quick ~jobs =
  let t0 = Unix.gettimeofday () in
  let points =
    Sweep.map ~jobs
      (fun remote_handover_frac ->
        let p =
          Fig7.point ~quick ~nodes:3 ~handover_frac:0.025 ~remote_handover_frac
        in
        (p.Fig7.committed, p.Fig7.final_clock_us, p.Fig7.events))
      sweep_specs
  in
  (Unix.gettimeofday () -. t0, points)

(* ---- experiment ---- *)

let compute ~quick =
  let repeats = if quick then 5 else 7 in
  let duration_us = if quick then 10_000.0 else 50_000.0 in
  let smallbank = best_smallbank ~repeats ~duration_us in
  let populate = best_populate ~repeats in
  let baseline, baseline_words, baseline_promoted, baseline_live, baseline_alloc =
    read_baseline ()
  in
  let speedup =
    Option.map (fun b -> smallbank.events_per_sec /. b) baseline
  in
  let regression_ok = match speedup with None -> true | Some s -> s >= 0.75 in
  let words_ok =
    match baseline_words with
    | None -> true
    | Some w -> smallbank.words_per_event <= 1.05 *. w
  in
  let promoted_ok =
    match baseline_promoted with
    | None -> true
    | Some p -> smallbank.promoted_per_event <= 1.10 *. p
  in
  let live_words_ok =
    match baseline_live with
    | None -> true
    | Some l -> populate.live_words_per_key <= 1.05 *. l
  in
  let alloc_words_ok =
    match baseline_alloc with
    | None -> true
    | Some a -> populate.alloc_words_per_key <= 1.05 *. a
  in
  let sweep_jobs = 4 in
  let j1_wall, j1_points = sweep_once ~quick ~jobs:1 in
  let jn_wall, jn_points = sweep_once ~quick ~jobs:sweep_jobs in
  {
    quick;
    repeats;
    cores = Domain.recommended_domain_count ();
    smallbank;
    baseline_events_per_sec = baseline;
    speedup;
    regression_ok;
    baseline_words_per_event = baseline_words;
    words_ok;
    baseline_promoted_per_event = baseline_promoted;
    promoted_ok;
    populate;
    baseline_live_words_per_key = baseline_live;
    live_words_ok;
    baseline_alloc_words_per_key = baseline_alloc;
    alloc_words_ok;
    sweep_points = List.length sweep_specs;
    sweep_jobs;
    sweep_j1_wall_s = j1_wall;
    sweep_jn_wall_s = jn_wall;
    sweep_speedup = j1_wall /. Float.max jn_wall 1e-9;
    sweep_identical = j1_points = jn_points;
  }

let to_json r =
  let s = r.smallbank and p = r.populate and opt = J.opt J.num in
  J.Obj
    [
      ("quick", J.Bool r.quick); ("repeats", J.int r.repeats); ("cores", J.int r.cores);
      ( "smallbank",
        J.Obj
          [
            ("events_per_sec", J.num s.events_per_sec); ("events", J.int s.events);
            ("wall_s", J.num s.wall_s); ("committed", J.int s.committed);
            ("sim_us", J.num s.sim_us); ("minor_words", J.num s.minor_words);
            ("words_per_event", J.num s.words_per_event);
            ("promoted_words", J.num s.promoted_words);
            ("promoted_per_event", J.num s.promoted_per_event);
          ] );
      ("baseline_events_per_sec", opt r.baseline_events_per_sec);
      ("speedup", opt r.speedup); ("regression_ok", J.Bool r.regression_ok);
      ("baseline_words_per_event", opt r.baseline_words_per_event);
      ("words_ok", J.Bool r.words_ok);
      ("baseline_promoted_per_event", opt r.baseline_promoted_per_event);
      ("promoted_ok", J.Bool r.promoted_ok);
      ( "populate",
        J.Obj
          [
            ("keys", J.int p.keys); ("setup_s", J.num p.setup_s);
            ("live_words_per_key", J.num p.live_words_per_key);
            ("alloc_words_per_key", J.num p.alloc_words_per_key);
          ] );
      ("baseline_live_words_per_key", opt r.baseline_live_words_per_key);
      ("live_words_ok", J.Bool r.live_words_ok);
      ("baseline_alloc_words_per_key", opt r.baseline_alloc_words_per_key);
      ("alloc_words_ok", J.Bool r.alloc_words_ok);
      ( "sweep",
        J.Obj
          [
            ("points", J.int r.sweep_points); ("jobs", J.int r.sweep_jobs);
            ("j1_wall_s", J.num r.sweep_j1_wall_s); ("jn_wall_s", J.num r.sweep_jn_wall_s);
            ("speedup", J.num r.sweep_speedup); ("identical", J.Bool r.sweep_identical);
          ] );
    ]

let run ~quick =
  let r = compute ~quick in
  let f = Printf.sprintf in
  Exp.print_kv "perf: simulator wall-clock harness"
    [
      ( "smallbank events/sec",
        f "%.0f (%d events in %.3f s, best of %d)" r.smallbank.events_per_sec
          r.smallbank.events r.smallbank.wall_s r.repeats );
      ( "vs checked-in baseline",
        match (r.baseline_events_per_sec, r.speedup) with
        | Some b, Some s -> f "%.0f events/sec -> %.2fx" b s
        | _ -> "no baseline recorded" );
      ("committed txns", string_of_int r.smallbank.committed);
      ( "GC minor words/event",
        f "%.1f (%.2e minor)" r.smallbank.words_per_event r.smallbank.minor_words );
      ( "vs checked-in baseline",
        match r.baseline_words_per_event with
        | Some b -> f "%.1f words/event -> %s" b (if r.words_ok then "ok" else "ABOVE +5%")
        | None -> "no baseline recorded" );
      ( "GC promoted words/event",
        f "%.2f (%.2e promoted)" r.smallbank.promoted_per_event r.smallbank.promoted_words );
      ( "vs checked-in baseline",
        match r.baseline_promoted_per_event with
        | Some b ->
          f "%.2f promoted/event -> %s" b (if r.promoted_ok then "ok" else "ABOVE +10%")
        | None -> "no baseline recorded" );
      ( "TATP populate",
        f "%d keys in %.3f s (best of %d), %.1f live words/key, %.1f allocated words/key"
          r.populate.keys r.populate.setup_s r.repeats r.populate.live_words_per_key
          r.populate.alloc_words_per_key );
      ( "vs checked-in baseline",
        match r.baseline_live_words_per_key with
        | Some b ->
          f "%.1f live words/key -> %s" b (if r.live_words_ok then "ok" else "ABOVE +5%")
        | None -> "no baseline recorded" );
      ( "vs checked-in baseline",
        match r.baseline_alloc_words_per_key with
        | Some b ->
          f "%.1f allocated words/key -> %s" b
            (if r.alloc_words_ok then "ok" else "ABOVE +5%")
        | None -> "no baseline recorded" );
      ( "sweep wall-clock",
        f "-j 1 %.3f s -> -j %d %.3f s (%.2fx, %d cores)" r.sweep_j1_wall_s
          r.sweep_jobs r.sweep_jn_wall_s r.sweep_speedup r.cores );
      ( "sweep results bit-identical",
        if r.sweep_identical then "yes" else "NO" );
    ];
  r
