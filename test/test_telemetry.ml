(* Telemetry layer: typed metrics (registration, percentile edge cases),
   trace spans (nesting, ordering, idempotent finish, drop accounting),
   exporter JSON validity, and an end-to-end Smallbank trace check. *)

module Metrics = Zeus_telemetry.Metrics
module Trace = Zeus_telemetry.Trace
module Jsonv = Zeus_telemetry.Jsonv
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module W = Zeus_workload

let tc = Helpers.tc
let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---- percentile edge cases ---- *)

let percentile_edges () =
  let h = Metrics.Histogram.create "t" in
  check Alcotest.bool "empty p50 is nan" true
    (Float.is_nan (Metrics.Histogram.percentile h 50.0));
  check Alcotest.bool "empty mean is nan" true
    (Float.is_nan (Metrics.Histogram.mean h));
  Metrics.Histogram.observe h 7.0;
  checkf "single p0" 7.0 (Metrics.Histogram.percentile h 0.0);
  checkf "single p50" 7.0 (Metrics.Histogram.percentile h 50.0);
  checkf "single p100" 7.0 (Metrics.Histogram.percentile h 100.0);
  Metrics.Histogram.observe h 1.0;
  Metrics.Histogram.observe h 3.0;
  checkf "p0 is min" 1.0 (Metrics.Histogram.percentile h 0.0);
  checkf "p100 is max" 7.0 (Metrics.Histogram.percentile h 100.0);
  (* NaN observations are dropped, not poisoning the distribution. *)
  Metrics.Histogram.observe h nan;
  check Alcotest.int "nan dropped from count" 3 (Metrics.Histogram.count h);
  check Alcotest.bool "p50 still finite" true
    (Float.is_finite (Metrics.Histogram.percentile h 50.0))

let registry_idempotent () =
  let m = Metrics.create () in
  let a = Metrics.Counter.v m "c" in
  let b = Metrics.Counter.v m "c" in
  Metrics.Counter.incr a;
  Metrics.Counter.incr ~by:2 b;
  check Alcotest.int "same cell" 3 (Metrics.Counter.get a);
  check
    Alcotest.(list (pair string int))
    "one registered counter" [ ("c", 3) ] (Metrics.counters m);
  let h1 = Metrics.Histogram.v m "h" in
  let h2 = Metrics.Histogram.v m "h" in
  Metrics.Histogram.observe h1 1.0;
  Metrics.Histogram.observe h2 2.0;
  check Alcotest.int "same histogram" 2 (Metrics.Histogram.count h1)

(* ---- trace spans ---- *)

let manual_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun t -> now := t)

let span_nesting_and_ordering () =
  let now, set = manual_clock () in
  let tr = Trace.create ~enabled:true ~now () in
  set 10.0;
  let root = Trace.start_span tr ~cat:"txn" ~pid:0 ~tid:1 "txn" in
  set 12.0;
  let child = Trace.start_span tr ~cat:"txn" ~pid:0 ~tid:1 ~parent:root "own" in
  set 15.0;
  Trace.finish tr child;
  Trace.complete tr ~cat:"txn" ~pid:0 ~tid:1 ~parent:root ~start:15.0 ~stop:18.0
    "exec";
  set 20.0;
  Trace.finish tr ~args:[ ("result", "committed") ] root;
  check Alcotest.int "three spans" 3 (Trace.count tr);
  let roots = Trace.roots tr in
  check Alcotest.int "one root" 1 (List.length roots);
  let r = List.hd roots in
  checkf "root start" 10.0 r.Trace.start;
  checkf "root stop" 20.0 r.Trace.stop;
  check
    Alcotest.(option string)
    "root args" (Some "committed")
    (List.assoc_opt "result" r.Trace.args);
  (match Trace.children tr r with
  | [ a; b ] ->
    check Alcotest.string "children sorted by start" "own" a.Trace.name;
    check Alcotest.string "second child" "exec" b.Trace.name;
    check Alcotest.bool "nested in root" true
      (r.Trace.start <= a.Trace.start && b.Trace.stop <= r.Trace.stop)
  | kids -> Alcotest.failf "expected 2 children, got %d" (List.length kids));
  (* [spans] comes back sorted by start time. *)
  let starts = List.map (fun s -> s.Trace.start) (Trace.spans tr) in
  check Alcotest.bool "spans sorted" true (List.sort compare starts = starts)

let finish_idempotent () =
  let now, set = manual_clock () in
  let tr = Trace.create ~enabled:true ~now () in
  let sp = Trace.start_span tr ~cat:"c" ~pid:0 "s" in
  set 5.0;
  Trace.finish tr sp;
  set 9.0;
  Trace.finish tr sp;
  (* The late duplicate must not move the recorded stop. *)
  checkf "first finish wins" 5.0 sp.Trace.stop

let disabled_trace_is_null () =
  let tr = Trace.create ~now:(fun () -> 0.0) () in
  let sp = Trace.start_span tr ~cat:"c" ~pid:0 "s" in
  check Alcotest.bool "null span" true (Trace.is_null sp);
  Trace.finish tr sp;
  Trace.complete tr ~cat:"c" ~pid:0 ~start:0.0 ~stop:1.0 "x";
  check Alcotest.int "nothing recorded" 0 (Trace.count tr)

let max_spans_drops () =
  let tr = Trace.create ~enabled:true ~max_spans:2 ~now:(fun () -> 0.0) () in
  for i = 0 to 4 do
    Trace.complete tr ~cat:"c" ~pid:0 ~start:0.0 ~stop:1.0 (string_of_int i)
  done;
  check Alcotest.int "capped" 2 (Trace.count tr);
  check Alcotest.int "drops counted" 3 (Trace.dropped tr)

(* ---- exporters ---- *)

let chrome_export_parses () =
  let now, set = manual_clock () in
  let tr = Trace.create ~enabled:true ~now () in
  let root = Trace.start_span tr ~cat:"txn" ~pid:0 "txn \"quoted\"\n" in
  set 3.5;
  Trace.finish tr root;
  let s = Trace.to_chrome_string tr in
  match Jsonv.parse s with
  | Error e -> Alcotest.failf "chrome export unparseable: %s" e
  | Ok v -> (
    match Option.bind (Jsonv.member "traceEvents" v) Jsonv.to_list with
    | None -> Alcotest.fail "no traceEvents array"
    | Some events ->
      (* span + process-name metadata; the escaped name survives a round
         trip through the JSON reader. *)
      check Alcotest.bool "at least span + metadata" true (List.length events >= 2);
      let names =
        List.filter_map (fun e -> Option.bind (Jsonv.member "name" e) Jsonv.to_string) events
      in
      check Alcotest.bool "escaped name round-trips" true
        (List.mem "txn \"quoted\"\n" names))

let jsonl_export_parses () =
  let tr = Trace.create ~enabled:true ~now:(fun () -> 1.0) () in
  Trace.complete tr ~cat:"c" ~pid:0 ~args:[ ("k", "v") ] ~start:1.0 ~stop:2.0 "a";
  Trace.complete tr ~cat:"c" ~pid:1 ~start:2.0 ~stop:3.0 "b";
  let lines =
    String.split_on_char '\n' (String.trim (Trace.to_jsonl_string tr))
  in
  check Alcotest.int "one line per span" 2 (List.length lines);
  List.iter
    (fun l ->
      match Jsonv.parse l with
      | Error e -> Alcotest.failf "bad jsonl line %S: %s" l e
      | Ok v ->
        check Alcotest.bool "has name" true (Jsonv.member "name" v <> None))
    lines

(* ---- end to end: Smallbank under tracing ---- *)

(* Deterministic small run; every committed transaction must carry the
   ownership -> execute -> replicate phase decomposition with monotone,
   nested sim-time bounds (the zeus_cli trace acceptance check, in-tree). *)
let smallbank_phases () =
  let nodes = 3 in
  let config = { Config.default with Config.nodes; record_history = false } in
  let cluster = Cluster.create ~config ~tracing:true () in
  let rng = Zeus_sim.Engine.fork_rng (Cluster.engine cluster) in
  let w = W.Smallbank.create ~accounts_per_node:200 ~nodes ~remote_frac:0.0 rng in
  W.Smallbank.populate w cluster;
  let r =
    W.Driver.run cluster ~warmup_us:200.0 ~duration_us:1_000.0
      ~issue:(W.Spec.issue (W.Smallbank.gen w)) ()
  in
  check Alcotest.bool "committed some" true (r.W.Driver.committed > 50);
  let tr = Cluster.trace cluster in
  check Alcotest.int "no dropped spans" 0 (Trace.dropped tr);
  let all = Trace.spans tr in
  let by_parent = Hashtbl.create 1024 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.parent >= 0 then
        Hashtbl.replace by_parent sp.Trace.parent
          (sp :: Option.value ~default:[] (Hashtbl.find_opt by_parent sp.Trace.parent)))
    all;
  let committed_roots =
    List.filter
      (fun (sp : Trace.span) ->
        sp.Trace.parent < 0
        && sp.Trace.name = "txn"
        && List.assoc_opt "result" sp.Trace.args = Some "committed")
      all
  in
  check Alcotest.bool "committed txns traced" true (committed_roots <> []);
  List.iter
    (fun (root : Trace.span) ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt by_parent root.Trace.id) in
      let find n = List.find_opt (fun (k : Trace.span) -> k.Trace.name = n) kids in
      match (find "ownership", find "execute", find "replicate") with
      | Some o, Some e, Some r ->
        let ok =
          root.Trace.start <= o.Trace.start
          && o.Trace.start <= o.Trace.stop
          && o.Trace.stop <= e.Trace.start
          && e.Trace.start <= e.Trace.stop
          && e.Trace.stop <= r.Trace.start
          && r.Trace.start <= r.Trace.stop
          && r.Trace.stop <= root.Trace.stop
        in
        if not ok then
          Alcotest.failf "txn span %d: phases not monotone/nested" root.Trace.id
      | _ -> Alcotest.failf "txn span %d: missing phase spans" root.Trace.id)
    committed_roots;
  (* The shared phase histograms fed from the same places the spans did. *)
  let hm = Zeus_telemetry.Hub.metrics (Cluster.telemetry cluster) in
  let e2e = Metrics.Histogram.v hm "txn.e2e_us" in
  check Alcotest.bool "e2e histogram populated" true
    (Metrics.Histogram.count e2e >= List.length committed_roots)

(* ---- Jsonv printer ---- *)

(* Random trees whose strings mix JSON's special characters with control
   characters and whose numbers cover integral, fractional, tiny and huge
   magnitudes (any finite bit pattern). *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(frequency [ (3, printable); (1, oneofl [ '"'; '\\'; '/'; '\000'; '\031'; '\127' ]) ])
      (0 -- 8)
  in
  let finite f = if Float.is_finite f then f else 0.0 in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        float_range (-1e6) 1e6;
        map (fun b -> finite (Int64.float_of_bits b)) ui64;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Jsonv.Null;
               map (fun b -> Jsonv.Bool b) bool;
               map (fun f -> Jsonv.Num f) num;
               map (fun s -> Jsonv.Str s) str;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map (fun l -> Jsonv.Arr l) (list_size (0 -- 4) (self (depth - 1))));
               ( 1,
                 map (fun l -> Jsonv.Obj l)
                   (list_size (0 -- 4) (pair str (self (depth - 1)))) );
             ])

let json_round_trip =
  QCheck.Test.make ~name:"jsonv: parse (serialize v) = Ok v" ~count:500
    (QCheck.make ~print:Jsonv.serialize json_gen)
    (fun v -> Jsonv.parse (Jsonv.serialize v) = Ok v)

let json_numbers () =
  let p x = Jsonv.serialize (Jsonv.Num x) in
  check Alcotest.string "nan" "null" (p Float.nan);
  check Alcotest.string "+inf" "null" (p Float.infinity);
  check Alcotest.string "-inf" "null" (p Float.neg_infinity);
  check Alcotest.string "integral" "137396349" (p 137396349.0);
  check Alcotest.string "shortest" "0.1" (p 0.1);
  check Alcotest.string "17 digits" "0.30000000000000004" (p (0.1 +. 0.2));
  check Alcotest.string "control" {|"a\u0001\n\"\\"|} (Jsonv.serialize (Jsonv.Str "a\001\n\"\\"))

(* Every literal a Makefile gate greps a BENCH file for, and the line shape
   [perf-baseline]'s sed reads, spelled by the printer itself: a layout
   change that broke one would silently disarm its gate. *)
let json_gate_literals () =
  let text =
    Jsonv.serialize
      (Jsonv.Obj
         [
           ( "scenarios",
             Jsonv.Arr
               [
                 Jsonv.Obj
                   [
                     ("recovery_us", Jsonv.opt Jsonv.num None);
                     ("monitors_ok", Jsonv.Bool false);
                     ("within_bound", Jsonv.Bool false);
                     ("recovered", Jsonv.Bool false);
                   ];
               ] );
           ( "smallbank",
             Jsonv.Obj
               [ ("events_per_sec", Jsonv.num 622970.5); ("words_per_event", Jsonv.num 118.5) ]
           );
           ("regression_ok", Jsonv.Bool false);
           ("handover", Jsonv.Obj [ ("messages_cut_ok", Jsonv.Bool false) ]);
           ("sweep", Jsonv.Obj [ ("identical", Jsonv.Bool false) ]);
         ])
  in
  let lines = String.split_on_char '\n' text in
  let has sub line =
    let n = String.length sub in
    let rec at i = i + n <= String.length line && (String.sub line i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun lit ->
      check Alcotest.bool lit true (List.exists (has lit) lines))
    [
      {|"recovery_us": null|};
      {|"monitors_ok": false|};
      {|"within_bound": false|};
      {|"recovered": false|};
      {|"identical": false|};
      {|"regression_ok": false|};
      {|"messages_cut_ok": false|};
      {|"smallbank": {"events_per_sec": 622970.5,|};
    ];
  check Alcotest.int "words_per_event on one line" 1
    (List.length (List.filter (has {|"words_per_event": 118.5|}) lines))

let suite =
  [
    tc "histogram: percentile edge cases" percentile_edges;
    tc "metrics: registration idempotent" registry_idempotent;
    tc "trace: span nesting and ordering" span_nesting_and_ordering;
    tc "trace: finish idempotent" finish_idempotent;
    tc "trace: disabled is free" disabled_trace_is_null;
    tc "trace: max_spans drop accounting" max_spans_drops;
    tc "trace: chrome export parses" chrome_export_parses;
    tc "trace: jsonl export parses" jsonl_export_parses;
    tc "integration: smallbank phase spans" smallbank_phases;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) json_round_trip;
    tc "jsonv: numbers and escapes" json_numbers;
    tc "jsonv: Makefile gate literals" json_gate_literals;
  ]
