(* Unit and property tests for the simulation substrate. *)

module Rng = Zeus_sim.Rng
module Heap = Zeus_sim.Heap
module Engine = Zeus_sim.Engine
module Resource = Zeus_sim.Resource
module Fifo = Zeus_sim.Fifo
module Stats = Zeus_sim.Stats

let tc = Helpers.tc
let check = Alcotest.check

(* ---------- rng ---------- *)

let rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.float r 3.0 in
    if f < 0.0 || f >= 3.0 then Alcotest.failf "float out of bounds: %f" f
  done

let rng_split_independent () =
  let r = Rng.create 9L in
  let s = Rng.split r in
  let a = Rng.int64 r and b = Rng.int64 s in
  if a = b then Alcotest.fail "split stream equals parent stream"

let rng_chance_extremes () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    if Rng.chance r 0.0 then Alcotest.fail "chance 0 fired";
    if not (Rng.chance r 1.0) then Alcotest.fail "chance 1 missed"
  done

let rng_exponential_mean () =
  let r = Rng.create 5L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 10.0) > 0.5 then Alcotest.failf "exp mean %f" mean

let rng_shuffle_permutation () =
  let r = Rng.create 11L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let zipf_skew () =
  let r = Rng.create 13L in
  let z = Rng.Zipf.create ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.Zipf.sample z r in
    if v < 0 || v >= 1000 then Alcotest.failf "zipf out of range %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  (* rank 0 should dominate: > 5% of all samples for theta=.99, n=1000 *)
  if counts.(0) < n / 20 then Alcotest.failf "zipf not skewed: top=%d" counts.(0)

let zipf_uniform_theta0 () =
  let r = Rng.create 17L in
  let z = Rng.Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    counts.(Rng.Zipf.sample z r) <- counts.(Rng.Zipf.sample z r) + 1
  done;
  Array.iter (fun c -> if c < 500 then Alcotest.fail "theta=0 not uniform") counts

(* ---------- heap ---------- *)

let heap_orders () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec pop () =
    match Heap.pop h with
    | Some v ->
      out := v :: !out;
      pop ()
    | None -> ()
  in
  pop ();
  check Alcotest.(list int) "sorted" [ 9; 5; 4; 3; 1; 1; 0 ] !out

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

let heap_interleaved () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  Heap.push h 5;
  Heap.push h 2;
  check Alcotest.(option int) "min" (Some 2) (Heap.pop h);
  Heap.push h 1;
  Heap.push h 7;
  check Alcotest.(option int) "min2" (Some 1) (Heap.pop h);
  check Alcotest.(option int) "min3" (Some 5) (Heap.pop h);
  check Alcotest.(option int) "min4" (Some 7) (Heap.pop h);
  check Alcotest.(option int) "empty" None (Heap.pop h);
  check Alcotest.bool "is_empty" true (Heap.is_empty h)

(* ---------- engine event heap (specialized heap: qcheck properties) ----- *)

(* Schedule a batch of random delays; dispatch order must equal a stable
   sort by time — the engine's (time, seq) heap key makes equal-time events
   fire in scheduling order. *)
let engine_heap_order_qcheck =
  QCheck.Test.make ~name:"engine: dispatch order is stable time sort" ~count:200
    QCheck.(list (int_bound 50))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          let after = float_of_int d in
          ignore (Engine.schedule e ~after (fun () -> fired := (d, i) :: !fired)))
        delays;
      Engine.run e;
      let expect =
        List.stable_sort
          (fun (d1, _) (d2, _) -> compare d1 d2)
          (List.mapi (fun i d -> (d, i)) delays)
      in
      List.rev !fired = expect)

(* Equal-time events keep scheduling order even through interleaved pops:
   everything fires at the same instant, so the dispatch log is exactly the
   scheduling sequence. *)
let engine_heap_fifo_qcheck =
  QCheck.Test.make ~name:"engine: equal-time FIFO under load" ~count:100
    QCheck.(int_range 1 200)
    (fun n ->
      let e = Engine.create () in
      let fired = ref [] in
      for i = 0 to n - 1 do
        ignore (Engine.schedule e ~after:1.0 (fun () -> fired := i :: !fired))
      done;
      Engine.run e;
      List.rev !fired = List.init n (fun i -> i))

(* Cancel a random subset, run: only survivors fire, in stable time order,
   and the queue reports empty.  Large cancelled fractions also push the
   engine through its eager-compaction path. *)
let engine_cancel_qcheck =
  QCheck.Test.make ~name:"engine: cancel-then-run fires exactly survivors" ~count:200
    QCheck.(list (pair (int_bound 50) bool))
    (fun spec ->
      let e = Engine.create () in
      let fired = ref [] in
      let ids =
        List.mapi
          (fun i (d, _) ->
            Engine.schedule e ~after:(float_of_int d) (fun () -> fired := (d, i) :: !fired))
          spec
      in
      List.iteri (fun i (_, keep) -> if not keep then Engine.cancel e (List.nth ids i)) spec;
      Engine.run e;
      let expect =
        List.stable_sort
          (fun (d1, _) (d2, _) -> compare d1 d2)
          (List.filteri (fun i _ -> snd (List.nth spec i)) (List.mapi (fun i (d, _) -> (d, i)) spec))
      in
      List.rev !fired = expect && Engine.pending e = 0)

(* Mass cancellation forces the heap's eager compaction (stale > live);
   survivors must still dispatch correctly afterwards. *)
let engine_compaction () =
  let e = Engine.create () in
  let fired = ref 0 in
  let ids =
    List.init 1000 (fun i ->
        Engine.schedule e ~after:(float_of_int (i mod 97)) (fun () -> incr fired))
  in
  List.iteri (fun i id -> if i mod 10 <> 0 then Engine.cancel e id) ids;
  check Alcotest.int "pending survivors" 100 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "fired survivors" 100 !fired;
  check Alcotest.int "drained" 0 (Engine.pending e)

(* ---------- engine ---------- *)

let engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:5.0 (fun () -> log := 5 :: !log));
  ignore (Engine.schedule e ~after:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:3.0 (fun () -> log := 3 :: !log));
  Engine.run e;
  check Alcotest.(list int) "order" [ 1; 3; 5 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock" 5.0 (Engine.now e)

let engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Engine.cancel e ev;
  Engine.run e;
  check Alcotest.bool "cancelled" false !fired;
  check Alcotest.int "pending" 0 (Engine.pending e)

let engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  check Alcotest.int "only first 5" 5 !count;
  check (Alcotest.float 1e-9) "clock at bound" 5.5 (Engine.now e);
  Engine.run e;
  check Alcotest.int "rest run" 10 !count

let engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~after:1.0 (fun () -> log := "b" :: !log))));
  Engine.run e;
  check Alcotest.(list string) "nested" [ "a"; "b" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock" 2.0 (Engine.now e)

let engine_max_events () =
  let e = Engine.create () in
  let rec forever () = ignore (Engine.schedule e ~after:1.0 forever) in
  forever ();
  Engine.run ~max_events:100 e;
  check Alcotest.int "bounded" 100 (Engine.events_dispatched e)

(* ---------- fifo ring ---------- *)

(* Random pushes ([Some x]) and pops ([None]) against [Stdlib.Queue]: the
   ring wraps and doubles many times over 200 cases, then a [clear] must
   leave it empty and reusable. *)
let fifo_qcheck =
  QCheck.Test.make ~name:"fifo matches Stdlib.Queue under push/pop/clear" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (option small_int))
    (fun ops ->
      let f = Fifo.create ~dummy:(-1) and q = Queue.create () in
      let same () = Fifo.length f = Queue.length q && Fifo.is_empty f = Queue.is_empty q in
      let step_ok = function
        | Some x ->
          Fifo.push f x;
          Queue.push x q;
          same ()
        | None -> Queue.is_empty q || (Fifo.pop f = Queue.pop q && same ())
      in
      List.for_all step_ok ops
      &&
      (Fifo.clear f;
       Fifo.push f 7;
       Fifo.length f = 1 && Fifo.pop f = 7 && Fifo.is_empty f))

(* ---------- resource ---------- *)

let resource_serializes () =
  let e = Engine.create () in
  let r = Resource.create e ~servers:1 in
  let log = ref [] in
  Resource.submit r ~service:2.0 (fun () -> log := (1, Engine.now e) :: !log);
  Resource.submit r ~service:3.0 (fun () -> log := (2, Engine.now e) :: !log);
  Engine.run e;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "sequential" [ (1, 2.0); (2, 5.0) ] (List.rev !log)

let resource_parallel () =
  let e = Engine.create () in
  let r = Resource.create e ~servers:2 in
  let done_at = ref [] in
  Resource.submit r ~service:2.0 (fun () -> done_at := Engine.now e :: !done_at);
  Resource.submit r ~service:2.0 (fun () -> done_at := Engine.now e :: !done_at);
  Engine.run e;
  check Alcotest.(list (float 1e-9)) "parallel" [ 2.0; 2.0 ] !done_at

let resource_stats () =
  let e = Engine.create () in
  let r = Resource.create e ~servers:1 in
  for _ = 1 to 5 do
    Resource.submit r ~service:1.0 (fun () -> ())
  done;
  check Alcotest.int "queued" 4 (Resource.queue_length r);
  Engine.run e;
  check Alcotest.int "completed" 5 (Resource.completed r);
  check (Alcotest.float 1e-9) "busy time" 5.0 (Resource.busy_time r);
  check Alcotest.int "idle" 0 (Resource.busy r)

(* ---------- stats ---------- *)

let percentile_interpolates () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile_of_sorted a 0.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile_of_sorted a 100.0);
  check (Alcotest.float 1e-9) "p50" 3.0 (Stats.percentile_of_sorted a 50.0);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile_of_sorted a 25.0)

let summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 5.0; 3.0 ];
  check Alcotest.int "count" 3 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.Summary.max s)

let samples_exact_when_small () =
  let s = Stats.Samples.create ~cap:1000 (Rng.create 1L) in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-6) "mean" 50.5 (Stats.Samples.mean s);
  check (Alcotest.float 1.0) "p99" 99.0 (Stats.Samples.percentile s 99.0)

let samples_reservoir_bounded () =
  let s = Stats.Samples.create ~cap:100 (Rng.create 2L) in
  for i = 1 to 10_000 do
    Stats.Samples.add s (float_of_int i)
  done;
  check Alcotest.int "count tracks all" 10_000 (Stats.Samples.count s);
  check Alcotest.int "storage bounded" 100 (Array.length (Stats.Samples.values s));
  (* the reservoir median should be near the true median *)
  let p50 = Stats.Samples.percentile s 50.0 in
  if p50 < 2_000.0 || p50 > 8_000.0 then Alcotest.failf "median drifted: %f" p50

let timeseries_buckets () =
  let ts = Stats.Timeseries.create ~bucket:10.0 in
  Stats.Timeseries.add ts ~time:1.0 1.0;
  Stats.Timeseries.add ts ~time:5.0 1.0;
  Stats.Timeseries.add ts ~time:25.0 2.0;
  check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "buckets"
    [ (0.0, 2.0); (10.0, 0.0); (20.0, 2.0) ]
    (Stats.Timeseries.buckets ts)

let cdf_monotone () =
  let s = Stats.Samples.create (Rng.create 3L) in
  for _ = 1 to 1000 do
    Stats.Samples.add s (Rng.float (Rng.create (Int64.of_int (Stats.Samples.count s))) 10.0)
  done;
  let cdf = Stats.Samples.cdf s ~points:20 in
  let rec monotone = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
      if v1 > v2 || f1 > f2 then false else monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "monotone" true (monotone cdf);
  check (Alcotest.float 1e-9) "ends at 1" 1.0 (snd (List.nth cdf (List.length cdf - 1)))

let suite =
  [
    tc "rng: deterministic per seed" rng_deterministic;
    tc "rng: int/float bounds" rng_bounds;
    tc "rng: split independence" rng_split_independent;
    tc "rng: chance extremes" rng_chance_extremes;
    tc "rng: exponential mean" rng_exponential_mean;
    tc "rng: shuffle is a permutation" rng_shuffle_permutation;
    tc "rng: zipf skew" zipf_skew;
    tc "rng: zipf theta=0 uniform" zipf_uniform_theta0;
    tc "heap: pops sorted" heap_orders;
    tc "heap: interleaved push/pop" heap_interleaved;
    QCheck_alcotest.to_alcotest heap_qcheck;
    tc "engine: time order" engine_time_order;
    QCheck_alcotest.to_alcotest engine_heap_order_qcheck;
    QCheck_alcotest.to_alcotest engine_heap_fifo_qcheck;
    QCheck_alcotest.to_alcotest engine_cancel_qcheck;
    tc "engine: compaction after mass cancel" engine_compaction;
    tc "engine: FIFO at equal times" engine_fifo_same_time;
    tc "engine: cancel" engine_cancel;
    tc "engine: run until bound" engine_until;
    tc "engine: nested scheduling" engine_nested_schedule;
    tc "engine: max_events bound" engine_max_events;
    QCheck_alcotest.to_alcotest fifo_qcheck;
    tc "resource: single server serializes" resource_serializes;
    tc "resource: two servers in parallel" resource_parallel;
    tc "resource: accounting" resource_stats;
    tc "stats: percentile interpolation" percentile_interpolates;
    tc "stats: summary" summary_basics;
    tc "stats: samples exact under cap" samples_exact_when_small;
    tc "stats: reservoir bounded and sane" samples_reservoir_bounded;
    tc "stats: timeseries buckets" timeseries_buckets;
    tc "stats: cdf monotone" cdf_monotone;
  ]
