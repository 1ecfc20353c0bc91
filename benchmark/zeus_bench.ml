(* zeus_bench: the repository benchmark (see README.md).

     zeus_bench.exe run [--seed N] [--out FILE] [--smoke] [--spec FILE]
     zeus_bench.exe compare A.json B.json [--spec FILE]
     zeus_bench.exe --workload W --seed N --seconds S --trace 0|1

   Every measurement runs in a child process of this executable
   ([--child W ...]), one at a time, so each repeat starts from a fresh heap
   and only one process is busy at any moment. *)

module J = Zeus_telemetry.Jsonv
module Stats = Zeus_sim.Stats
module Cluster = Zeus_core.Cluster
open Util

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("zeus_bench: " ^ s); exit 2) fmt

let workload name =
  match Scenario.find name with
  | Some w -> w
  | None ->
    fail "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.Scenario.name) Scenario.all))

(* Traced runs cover a tenth of the measured duration: spans and io-tap
   logs stay in memory until the run ends. *)
let trace_scale = 0.1

(* ---------- child: one simulated run ---------------------------------------- *)

let child ~name ~seed ~scale ~population ~traced ~check ~trace_out =
  (* The GC settings of bench/main.ml and zeus_cli, deliberately copied: the
     benchmark measures the program as those entry points run it. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024; Gc.space_overhead = 400 };
  (* Touch the whole minor heap once: its first-touch page faults are paid
     by process start-up, whatever runs first, not by the cluster's set-up. *)
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size do
    ignore (Sys.opaque_identity (ref ()))
  done;
  let r = Scenario.run ~traced ~check ~scale ~population (workload name) ~seed in
  let layer, kinds, ledger_checks = if traced then Ledger.measure r else ([], [], []) in
  Option.iter (Zeus_telemetry.Trace.write_chrome (Cluster.trace r.Scenario.cluster)) trace_out;
  let committed = float_of_int (Scenario.committed_all r) in
  let lat = r.Scenario.latencies in
  let n = Array.length lat in
  (* Mean of the slowest [frac] of the samples (at least one sample). *)
  let tail_mean frac =
    let k = min n (max 1 (int_of_float (Float.ceil (frac *. float_of_int n)))) in
    let s = ref 0.0 in
    for i = n - k to n - 1 do
      s := !s +. lat.(i)
    done;
    !s /. float_of_int k
  in
  let e2e =
    [
      ("setup_s", r.Scenario.setup_s);
      ("txn_per_s", committed /. r.Scenario.run_s);
      ("alloc_words_per_txn", r.Scenario.minor_words /. committed);
      ("peak_rss_mb", r.Scenario.peak_rss_mb);
      ("vt_mtps", float_of_int r.Scenario.window_commits /. r.Scenario.w.Scenario.duration_us);
      ("vt_mean_us", Array.fold_left ( +. ) 0.0 lat /. float_of_int n);
      ("vt_tail99_us", tail_mean 0.01);
    ]
  in
  let checks =
    r.Scenario.checks @ ledger_checks
    @ [ ("latency samples", if n > 0 then Ok () else Error "no transaction committed") ]
  in
  let fields kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  print_endline
    (obj
       [
         ("digest", str (Scenario.digest r.Scenario.cluster));
         ("issued", string_of_int r.Scenario.issued);
         ("failed", string_of_int r.Scenario.failed);
         ("committed", num committed);
         ("run_s", num r.Scenario.run_s);
         ( "events",
           string_of_int (Zeus_sim.Engine.events_dispatched (Cluster.engine r.Scenario.cluster)) );
         ("vt_samples", string_of_int n);
         ( "latency_us",
           fields
             (List.map
                (fun p -> (Printf.sprintf "p%g" p, Stats.percentile_of_sorted lat p))
                [ 50.0; 99.0; 99.9 ]) );
         ("e2e", fields e2e);
         ("layer", fields layer);
         ("kinds", obj (List.map (fun (k, v) -> (k, string_of_int v)) kinds));
         ( "checks",
           arr
             (List.map
                (fun (k, res) ->
                  let error = match res with Ok () -> "null" | Error e -> str e in
                  obj [ ("name", str k); ("error", error) ])
                checks) );
       ])

(* ---------- parent: spawning children --------------------------------------- *)

type child = { name : string; scale : float; j : J.v; wall_s : float }

let spawn ?trace_out ?(population = 1.0) ?(check = true) ~seed ~scale ~traced name =
  let args =
    [ "--child"; name; "--seed"; Int64.to_string seed; "--scale"; Printf.sprintf "%h" scale;
      "--population"; Printf.sprintf "%h" population ]
    @ (if traced then [ "--traced" ] else [])
    @ (if check then [] else [ "--no-check" ])
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match J.parse !last with
    | Ok j -> { name; scale; j; wall_s = Unix.gettimeofday () -. t0 }
    | Error e -> fail "the run of %s printed no result (%s)" name e)
  | _ -> fail "the run of %s failed" name

let floats k c = List.map (fun (m, _) -> (m, float_of m (member_exn k c.j))) (assoc_of k c.j)
let wall_ns_per_txn c = float_of "run_s" c.j *. 1e9 /. float_of "committed" c.j

(* Every failed check of these runs, plus determinism: runs of one
   workload at one scale and seed must end in the same simulation digest,
   traced or not. *)
let failures children =
  let own =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun chk ->
            match J.member "error" chk with
            | Some (J.Str e) -> Some (Printf.sprintf "%s: %s: %s" c.name (string_of "name" chk) e)
            | _ -> None)
          (list_of "checks" c.j))
      children
  in
  let digests =
    List.sort_uniq compare (List.map (fun c -> (c.name, c.scale, string_of "digest" c.j)) children)
  in
  let rec mismatches = function
    | (n, s, d) :: ((n', s', d') :: _ as rest) when n = n' && s = s' ->
      Printf.sprintf "%s: runs at scale %g end in different simulation digests (%s vs %s)" n s
        d d'
      :: mismatches rest
    | _ :: rest -> mismatches rest
    | [] -> []
  in
  own @ mismatches digests

(* The ledger of one workload: the traced run's raw layer numbers; the
   untraced runs at the same scale give the wall time per transaction that
   the layer shares add up to. *)
let finalize_layers traced untraced =
  let raw = floats "layer" traced in
  let wall = median (List.map wall_ns_per_txn untraced) in
  let traced_wall = wall_ns_per_txn traced in
  let costs =
    List.filter_map
      (fun l -> if l = "node" then None else Some (l, List.assoc (Catalog.cost_key l) raw))
      Catalog.ledger_layers
  in
  let residual = wall -. List.fold_left (fun a (_, v) -> a +. v) 0.0 costs in
  let derived =
    [
      ( "sim.events_per_s",
        median (List.map (fun c -> float_of "events" c.j /. float_of "run_s" c.j) untraced) );
      ("node.wall_ns_per_txn", wall);
      ("node.residual_ns_per_txn", residual);
      ("telemetry.ns_per_txn", traced_wall -. wall);
      ("telemetry.trace_overhead_frac", (traced_wall /. wall) -. 1.0);
    ]
    @ List.map (fun (l, v) -> (l ^ ".share", v /. wall)) (costs @ [ ("node", residual) ])
  in
  List.map
    (fun (k, _) ->
      match List.assoc_opt k (raw @ derived) with
      | Some v -> (k, v)
      | None -> fail "per-layer metric %s was not measured" k)
    Catalog.per_layer

(* ---------- one workload, one kind of run (BENCHMARK.json's command) -------- *)

(* Repeat [once i] at least [min_runs] times, then while a run as long as
   the last one still fits in [seconds]. *)
let repeat ~seconds ~min_runs once =
  let t0 = Unix.gettimeofday () in
  let rec go acc last =
    let n = List.length acc in
    if n >= min_runs && Unix.gettimeofday () -. t0 +. last > seconds then List.rev acc
    else
      let c = once n in
      go (c :: acc) c.wall_s
  in
  go [] 0.0

let measure_one ~name ~seed ~seconds ~trace =
  ignore (workload name);
  let runs, metrics =
    if not trace then begin
      let runs =
        repeat ~seconds ~min_runs:3 (fun i ->
            spawn ~check:(i = 0) ~seed ~scale:1.0 ~traced:false name)
      in
      let values = List.map (floats "e2e") runs in
      ( runs,
        List.map
          (fun (m : Catalog.e2e) ->
            ( m.Catalog.name,
              m.Catalog.unit_,
              Catalog.run_value m (List.map (List.assoc m.Catalog.name) values) ))
          Catalog.e2e )
    end
    else begin
      let traced = spawn ~seed ~scale:trace_scale ~traced:true name in
      let untraced =
        repeat ~seconds:(seconds -. traced.wall_s) ~min_runs:3 (fun _ ->
            spawn ~check:false ~seed ~scale:trace_scale ~traced:false name)
      in
      ( traced :: untraced,
        List.map
          (fun (k, v) -> (k, List.assoc k Catalog.per_layer, v))
          (finalize_layers traced untraced) )
    end
  in
  Printf.eprintf "%s: %d runs\n" name (List.length runs);
  List.iter (fun (k, u, v) -> Printf.eprintf "  %-36s %14.6g %s\n" k v u) metrics;
  let bad = failures runs in
  List.iter (fun f -> Printf.eprintf "CHECK FAILED %s\n" f) bad;
  let sum k = List.fold_left (fun a c -> a + int_of_float (float_of k c.j)) 0 runs in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  print_endline
    (obj
       [
         ("correct", string_of_bool (bad = [] && finite));
         ("attempted", string_of_int (sum "issued"));
         ("failed", string_of_int (sum "failed"));
         ( "metrics",
           obj (List.map (fun (k, u, v) -> (k, obj [ ("value", num v); ("unit", str u) ])) metrics)
         );
       ])

(* ---------- run: every workload, repeats interleaved ------------------------ *)

type summary = {
  w : Scenario.t;
  timed : child list;
  traced : child;
  e2e : (Catalog.e2e * float list) list;
  layers : (string * float) list;
  bad : string list;
}

let summarize ~w ~timed ~traced ~companion =
  let values = List.map (floats "e2e") timed in
  {
    w;
    timed;
    traced;
    e2e =
      List.map
        (fun (m : Catalog.e2e) -> (m, List.map (List.assoc m.Catalog.name) values))
        Catalog.e2e;
    layers = finalize_layers traced [ companion ];
    bad = failures (traced :: companion :: timed);
  }

let summary_json s =
  let first = List.hd s.timed in
  let nums kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  obj
    [
      ("sim_digest", str (string_of "digest" first.j));
      ("traced_digest", str (string_of "digest" s.traced.j));
      ("vt_samples", num (float_of "vt_samples" first.j));
      ("latency_us", nums (floats "latency_us" first));
      ( "end_to_end",
        obj
          (List.map
             (fun ((m : Catalog.e2e), values) ->
               let q1, q3 = quartiles values in
               ( m.Catalog.name,
                 obj
                   [
                     ("unit", str m.Catalog.unit_);
                     ("value", num (Catalog.run_value m values));
                     ("median", num (median values));
                     ("q1", num q1);
                     ("q3", num q3);
                     ("values", arr (List.map num values));
                   ] ))
             s.e2e) );
      ( "per_layer",
        obj
          (List.map
             (fun (k, v) ->
               (k, obj [ ("unit", str (List.assoc k Catalog.per_layer)); ("value", num v) ]))
             s.layers) );
      ("core_inputs", nums (floats "kinds" s.traced));
      ("failures", arr (List.map str s.bad));
    ]

let print_summary s =
  let first = List.hd s.timed in
  let layer k = List.assoc k s.layers in
  Printf.printf "\n== %s (%d runs) ==\n" s.w.Scenario.name (List.length s.timed);
  List.iter
    (fun ((m : Catalog.e2e), values) ->
      let q1, q3 = quartiles values in
      Printf.printf "  %-22s %14.6g %-6s [q1 %.6g, q3 %.6g]%s\n" m.Catalog.name
        (Catalog.run_value m values) m.Catalog.unit_ q1 q3
        (if m.Catalog.best_of then " best of the runs" else ""))
    s.e2e;
  let lat = member_exn "latency_us" first.j in
  Printf.printf "  virtual latency p50 %.3f us, p99 %.3f us, p99.9 %.3f us over %.0f samples\n"
    (float_of "p50" lat) (float_of "p99" lat) (float_of "p99.9" lat)
    (float_of "vt_samples" first.j);
  Printf.printf "  wall time per txn by layer:\n";
  List.iter
    (fun l ->
      Printf.printf "    %-10s %9.0f ns %6.1f %%\n" l
        (layer (Catalog.cost_key l))
        (100.0 *. layer (l ^ ".share")))
    Catalog.ledger_layers;
  Printf.printf "    %-10s %9.0f ns\n" "total" (layer "node.wall_ns_per_txn");
  Printf.printf "    tracing adds %.0f ns per txn (%+.0f %%)\n" (layer "telemetry.ns_per_txn")
    (100.0 *. layer "telemetry.trace_overhead_frac");
  List.iter (fun f -> Printf.printf "  CHECK FAILED %s\n" f) s.bad

(* Every metric BENCHMARK.json names must be reported for every workload,
   finite, with the unit BENCHMARK.json gives it; and it must name every
   metric the benchmark reports. *)
let spec_problems ~spec summaries =
  let j = parse_file spec in
  let named section = List.map (string_of "name") (list_of section j) in
  let unnamed =
    List.filter_map
      (fun name ->
        if List.mem name (named "end_to_end" @ named "per_layer") then None
        else Some (Printf.sprintf "%s is reported but not named in BENCHMARK.json" name))
      (List.map (fun (m : Catalog.e2e) -> m.Catalog.name) Catalog.e2e
      @ List.map fst Catalog.per_layer)
  in
  let check section lookup =
    List.concat_map
      (fun m ->
        let name = string_of "name" m and unit_ = string_of "unit" m in
        List.filter_map
          (fun s ->
            let problem fmt = Printf.ksprintf (fun p -> Some (s.w.Scenario.name ^ ": " ^ p)) fmt in
            match lookup s name with
            | None -> problem "%s is not reported" name
            | Some (u, _) when u <> unit_ ->
              problem "%s has unit %s, BENCHMARK.json says %s" name u unit_
            | Some (_, v) when not (Float.is_finite v) -> problem "%s is not finite" name
            | Some _ -> None)
          summaries)
      (list_of section j)
  in
  unnamed
  @ check "end_to_end" (fun s name ->
      List.find_map
        (fun ((m : Catalog.e2e), values) ->
          if m.Catalog.name = name then Some (m.Catalog.unit_, Catalog.run_value m values)
          else None)
        s.e2e)
  @ check "per_layer" (fun s name ->
        Option.map (fun v -> (List.assoc name Catalog.per_layer, v)) (List.assoc_opt name s.layers))

let run_all ~seed ~smoke ~out ~spec =
  (* The smoke test shrinks durations 20x and key spaces 10x, so that it
     stays a few seconds long and small in memory under [dune runtest].
     Seven repeats, not five: with five, the quartiles give the two extreme
     repeats half their weight, and one slow set-up makes a row unresolved. *)
  let scale = if smoke then 1.0 /. 20.0 else 1.0 and repeats = if smoke then 1 else 7 in
  let population = if smoke then 0.1 else 1.0 in
  Option.iter (fun o -> mkdir_p (Filename.dirname o)) out;
  let t0 = Unix.gettimeofday () in
  let timed = Hashtbl.create 4 in
  for r = 1 to repeats do
    List.iter
      (fun (w : Scenario.t) ->
        Printf.printf "run %d/%d %s\n%!" r repeats w.Scenario.name;
        Hashtbl.add timed w.Scenario.name
          (spawn ~check:(r = 1) ~seed ~scale ~population ~traced:false w.Scenario.name))
      Scenario.all
  done;
  let summaries =
    List.map
      (fun (w : Scenario.t) ->
        let name = w.Scenario.name in
        Printf.printf "traced %s\n%!" name;
        let trace_out =
          Option.map (fun o -> Filename.concat (Filename.dirname o) (name ^ ".trace.json")) out
        in
        let timed = List.rev (Hashtbl.find_all timed name) in
        (* The smoke test traces at its own (already tiny) scale, so its
           timed run doubles as the untraced run of the ledger. *)
        let tscale = if smoke then scale else scale *. trace_scale in
        let traced = spawn ?trace_out ~population ~seed ~scale:tscale ~traced:true name in
        let companion =
          if smoke then List.hd timed
          else spawn ~check:false ~seed ~scale:tscale ~traced:false name
        in
        summarize ~w ~timed ~traced ~companion)
      Scenario.all
  in
  List.iter print_summary summaries;
  let spec_bad = match spec with Some spec -> spec_problems ~spec summaries | None -> [] in
  List.iter (fun p -> Printf.printf "BENCHMARK.json MISMATCH %s\n" p) spec_bad;
  let correct = spec_bad = [] && List.for_all (fun s -> s.bad = []) summaries in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (obj
           [
             ("seed", Int64.to_string seed);
             ("smoke", string_of_bool smoke);
             ("repeats", string_of_int repeats);
             ("correct", string_of_bool correct);
             ("workloads", obj (List.map (fun s -> (s.w.Scenario.name, summary_json s)) summaries));
           ]);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  Printf.printf "%s in %.0f s\n%!"
    (if correct then "all checks passed" else "CHECKS FAILED")
    (Unix.gettimeofday () -. t0);
  if not correct then exit 1

(* ---------- command line ---------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  let seed () =
    match opt "--seed" args with
    | None -> 42L
    | Some s -> (
      match Int64.of_string_opt s with Some s -> s | None -> fail "--seed takes an integer")
  in
  let spec = Option.value (opt "--spec" args) ~default:"BENCHMARK.json" in
  match args with
  | "--child" :: name :: _ ->
    let float k = Option.value ~default:1.0 (Option.bind (opt k args) float_of_string_opt) in
    child ~name ~seed:(seed ()) ~scale:(float "--scale") ~population:(float "--population")
      ~traced:(flag "--traced") ~check:(not (flag "--no-check")) ~trace_out:(opt "--trace-out" args)
  | "run" :: _ ->
    let smoke = flag "--smoke" in
    run_all ~seed:(seed ()) ~smoke ~out:(opt "--out" args)
      ~spec:(if smoke || opt "--spec" args <> None then Some spec else None)
  | [ "compare"; a; b ] | [ "compare"; a; b; "--spec"; _ ] -> exit (Compare.main ~spec a b)
  | _ -> (
    match (opt "--workload" args, opt "--seconds" args, opt "--trace" args) with
    | Some name, Some secs, Some (("0" | "1") as trace) ->
      let seconds =
        match float_of_string_opt secs with Some s -> s | None -> fail "--seconds takes a number"
      in
      measure_one ~name ~seed:(seed ()) ~seconds ~trace:(trace = "1")
    | _ ->
      prerr_endline
        "usage: zeus_bench.exe run [--seed N] [--out FILE] [--smoke] [--spec FILE]\n\
        \       zeus_bench.exe compare A.json B.json [--spec FILE]\n\
        \       zeus_bench.exe --workload W --seed N --seconds S --trace 0|1";
      exit 2)
