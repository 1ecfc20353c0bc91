(* Tests for the message fabric and the reliable transport. *)

module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport

let tc = Helpers.tc
let check = Alcotest.check

type Zeus_net.Msg.payload += Ping of int

let setup ?(nodes = 3) ?(config = Fabric.default_config) () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes config in
  (e, f)

let collect f node =
  let log = ref [] in
  Fabric.set_handler f node (fun ~src payload ->
      match payload with Ping n -> log := (src, n) :: !log | _ -> ());
  log

(* ---------- fabric ---------- *)

let fabric_delivers () =
  let e, f = setup () in
  let log = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 7);
  Engine.run e;
  check Alcotest.(list (pair int int)) "delivered" [ (0, 7) ] !log;
  check Alcotest.bool "latency > base" true (Engine.now e >= 4.0)

let fabric_size_latency () =
  (* a 1 MB payload at 40 Gbps should take ~200 µs of serialization *)
  let e, f = setup () in
  let _ = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:1_000_000 (Ping 0);
  Engine.run e;
  if Engine.now e < 150.0 then Alcotest.failf "big message too fast: %f" (Engine.now e)

let fabric_loss () =
  let e, f = setup ~config:{ Fabric.default_config with Fabric.loss_prob = 1.0 } () in
  let log = collect f 1 in
  for _ = 1 to 20 do
    Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1)
  done;
  Engine.run e;
  check Alcotest.(list (pair int int)) "all lost" [] !log;
  check Alcotest.int "counted" 20 (Fabric.messages_dropped f)

let fabric_duplication () =
  let e, f = setup ~config:{ Fabric.default_config with Fabric.dup_prob = 1.0 } () in
  let log = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run e;
  check Alcotest.int "two copies" 2 (List.length !log)

let fabric_partition () =
  let e, f = setup () in
  let log1 = collect f 1 and log2 = collect f 2 in
  Fabric.partition f 0 1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Fabric.send f ~src:0 ~dst:2 ~size:64 (Ping 2);
  Engine.run e;
  check Alcotest.int "partitioned" 0 (List.length !log1);
  check Alcotest.int "other path open" 1 (List.length !log2);
  Fabric.heal f 0 1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 3);
  Engine.run e;
  check Alcotest.int "healed" 1 (List.length !log1)

let fabric_crash () =
  let e, f = setup () in
  let log = collect f 1 in
  Fabric.crash f 1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run e;
  check Alcotest.int "dead node" 0 (List.length !log);
  Fabric.crash f 0;
  Fabric.recover f 1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 2);
  Engine.run e;
  check Alcotest.int "dead sender" 0 (List.length !log)

let fabric_in_flight_to_crashed () =
  (* a message in flight to a node that crashes before arrival is dropped *)
  let e, f = setup () in
  let log = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  ignore (Engine.schedule e ~after:0.5 (fun () -> Fabric.crash f 1));
  Engine.run e;
  check Alcotest.int "dropped mid-flight" 0 (List.length !log)

let fabric_self_send () =
  let e, f = setup () in
  let log = collect f 0 in
  Fabric.send f ~src:0 ~dst:0 ~size:64 (Ping 9);
  Engine.run e;
  check Alcotest.(list (pair int int)) "self" [ (0, 9) ] !log;
  check Alcotest.bool "fast" true (Engine.now e < 1.0)

let fabric_counters () =
  let e, f = setup () in
  let _ = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:100 (Ping 1);
  Fabric.send f ~src:0 ~dst:1 ~size:200 (Ping 2);
  Engine.run e;
  check Alcotest.int "messages" 2 (Fabric.messages_sent f);
  check Alcotest.int "bytes" 300 (Fabric.bytes_sent f);
  Fabric.reset_counters f;
  check Alcotest.int "reset" 0 (Fabric.messages_sent f)

let fabric_oneway_partition () =
  let e, f = setup () in
  let log0 = collect f 0 and log1 = collect f 1 in
  Fabric.partition_oneway f ~src:0 ~dst:1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Fabric.send f ~src:1 ~dst:0 ~size:64 (Ping 2);
  Engine.run e;
  check Alcotest.int "src->dst dropped" 0 (List.length !log1);
  check Alcotest.(list (pair int int)) "reverse direction open" [ (1, 2) ] !log0;
  Fabric.heal_oneway f ~src:0 ~dst:1;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 3);
  Engine.run e;
  check Alcotest.(list (pair int int)) "healed" [ (0, 3) ] !log1

let fabric_heal_all_clears_both_kinds () =
  let e, f = setup () in
  let log1 = collect f 1 and log2 = collect f 2 in
  Fabric.partition f 0 1;
  Fabric.partition_oneway f ~src:0 ~dst:2;
  Fabric.heal_all f;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Fabric.send f ~src:0 ~dst:2 ~size:64 (Ping 2);
  Engine.run e;
  check Alcotest.int "symmetric healed" 1 (List.length !log1);
  check Alcotest.int "one-way healed" 1 (List.length !log2)

let fabric_perturb_spike () =
  let e, f = setup () in
  let log = collect f 1 in
  Fabric.set_perturb f (Some { Fabric.p_loss = 1.0; p_dup = 0.0; p_delay_us = 0.0 });
  for _ = 1 to 10 do
    Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1)
  done;
  Engine.run e;
  check Alcotest.int "spike loses everything" 0 (List.length !log);
  Fabric.set_perturb f None;
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 2);
  Engine.run e;
  check Alcotest.(list (pair int int)) "spike over" [ (0, 2) ] !log

let fabric_perturb_delay_and_dup () =
  let e, f = setup () in
  let log = collect f 1 in
  Fabric.set_perturb f (Some { Fabric.p_loss = 0.0; p_dup = 1.0; p_delay_us = 50.0 });
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run e;
  check Alcotest.int "duplicated" 2 (List.length !log);
  check Alcotest.bool "spike delay applied" true (Engine.now e >= 50.0)

let fabric_slow_node () =
  (* measure a baseline delivery, then the same with a 10x gray sender *)
  let e, f = setup () in
  let _ = collect f 1 in
  Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run e;
  let baseline = Engine.now e in
  let e2, f2 = setup () in
  let _ = collect f2 1 in
  Fabric.set_slow f2 0 10.0;
  Fabric.send f2 ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run e2;
  if Engine.now e2 < 5.0 *. baseline then
    Alcotest.failf "gray node not slowed: %.2f vs baseline %.2f" (Engine.now e2) baseline;
  Fabric.set_slow f2 0 1.0;
  check Alcotest.bool "factor cleared" true (Fabric.slow_factor f2 0 = 1.0)

let send_burst f n =
  for i = 0 to n - 1 do
    Fabric.send f ~src:0 ~dst:1 ~size:64 (Ping i)
  done

let fabric_permute_swaps_order () =
  (* [permute_prob] genuinely swaps per-link delivery order — unlike the
     [delay_prob] straggler, which only stretches arrival times *)
  let e, f =
    setup ~config:{ Fabric.default_config with Fabric.permute_prob = 1.0 } ()
  in
  let log = collect f 1 in
  send_burst f 12;
  Engine.run e;
  let got = List.rev_map snd !log in
  check
    Alcotest.(list int)
    "all delivered" (List.init 12 Fun.id)
    (List.sort compare got);
  check Alcotest.bool "order permuted" true (got <> List.init 12 Fun.id)

let fabric_scramble_knob () =
  (* the nemesis knob: same permutation, armed and disarmed at runtime.
     Jitter off so the disarmed burst has a deterministic baseline order. *)
  let e, f = setup ~config:{ Fabric.default_config with Fabric.jitter_us = 0.0 } () in
  let log = collect f 1 in
  Fabric.set_scramble f 1.0;
  check (Alcotest.float 0.0) "armed" 1.0 (Fabric.scramble f);
  send_burst f 12;
  Engine.run e;
  check Alcotest.bool "scramble permutes" true
    (List.rev_map snd !log <> List.init 12 Fun.id);
  log := [];
  Fabric.set_scramble f 0.0;
  send_burst f 12;
  Engine.run e;
  check
    Alcotest.(list int)
    "disarmed: in order again" (List.init 12 Fun.id)
    (List.rev_map snd !log);
  check Alcotest.bool "out-of-range rejected" true
    (match Fabric.set_scramble f 1.5 with
    | exception Invalid_argument _ -> true
    | () -> false)

let fabric_rejects_invalid_config () =
  let rejects config =
    match Fabric.create (Engine.create ()) ~nodes:3 config with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  List.iter
    (fun (name, config) ->
      check Alcotest.bool name true (rejects config))
    [
      ("loss > 1", { Fabric.default_config with Fabric.loss_prob = 1.5 });
      ("negative dup", { Fabric.default_config with Fabric.dup_prob = -0.1 });
      ("nan permute", { Fabric.default_config with Fabric.permute_prob = Float.nan });
      ("negative jitter", { Fabric.default_config with Fabric.jitter_us = -1.0 });
      ( "zero bandwidth",
        { Fabric.default_config with Fabric.bandwidth_gbps = 0.0 } );
    ];
  check Alcotest.bool "nodes <= 0" true
    (match Fabric.create (Engine.create ()) ~nodes:0 Fabric.default_config with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- fabric: the in-flight pool ---------- *)

let chaotic =
  {
    Fabric.default_config with
    Fabric.loss_prob = 0.2;
    dup_prob = 0.3;
    delay_prob = 0.3;
    permute_prob = 0.3;
  }

(* Every message sent or duplicated ends up delivered or dropped, whatever
   the faults: no pooled record is lost or fired twice. *)
let fabric_conservation_under_faults () =
  let e, f = setup ~config:chaotic () in
  let delivered = ref 0 in
  for n = 0 to 2 do
    Fabric.set_handler f n (fun ~src:_ _ -> incr delivered)
  done;
  for i = 0 to 599 do
    Fabric.send f ~src:(i mod 3) ~dst:((i + 1 + (i / 3 mod 2)) mod 3) ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.bool "some duplicated" true (Fabric.messages_duplicated f > 0);
  check Alcotest.bool "some dropped" true (Fabric.messages_dropped f > 0);
  check Alcotest.int "delivered + dropped = sent + duplicated"
    (Fabric.messages_sent f + Fabric.messages_duplicated f)
    (!delivered + Fabric.messages_dropped f)

(* A handler that sends from inside its delivery may be handed the very
   record that carried the message it is handling: a ping-pong chain with
   duplicates, where each received payload must be intact and come from
   its true sender. *)
let fabric_handler_sends_during_delivery () =
  let e, f = setup ~config:{ Fabric.default_config with Fabric.dup_prob = 0.5 } () in
  let seen = ref [] in
  for n = 0 to 1 do
    Fabric.set_handler f n (fun ~src payload ->
        match payload with
        | Ping i ->
          if src <> 1 - n then Alcotest.failf "node %d got Ping %d from %d" n i src;
          if i mod 2 <> n then Alcotest.failf "node %d got Ping %d" n i;
          (* answer the first copy only, or duplicates multiply *)
          if i < 40 && not (List.mem i !seen) then
            Fabric.send f ~src:n ~dst:src ~size:64 (Ping (i + 1));
          seen := i :: !seen
        | _ -> Alcotest.fail "foreign payload")
  done;
  Fabric.send f ~src:1 ~dst:0 ~size:64 (Ping 0);
  Engine.run e;
  check Alcotest.(list int) "every step of the chain arrived" (List.init 41 Fun.id)
    (List.sort_uniq compare !seen);
  check Alcotest.int "every copy delivered"
    (Fabric.messages_sent f + Fabric.messages_duplicated f)
    (List.length !seen)

(* Records are made only when the pool is empty, so the pool never holds
   more of them than the peak number of messages in flight at once; each
   event pending here is one message in flight. *)
let fabric_pool_bounded_by_peak () =
  let e, f = setup ~config:chaotic () in
  let peak = ref 0 in
  let note () = peak := max !peak (Engine.pending e) in
  for n = 0 to 2 do
    Fabric.set_handler f n (fun ~src payload ->
        match payload with
        | Ping i when i > 0 -> Fabric.send f ~src:n ~dst:src ~size:64 (Ping (i - 1))
        | _ -> ())
  done;
  for i = 0 to 29 do
    Fabric.send f ~src:(i mod 3) ~dst:((i + 1) mod 3) ~size:64 (Ping 5);
    note ()
  done;
  while Engine.pending e > 0 do
    Engine.run ~max_events:1 e;
    note ()
  done;
  let made = Fabric.flight_records f in
  if made > !peak || made = 0 then
    Alcotest.failf "%d in-flight records made, peak in flight %d" made !peak;
  (* a second burst of the same size is served from the pool *)
  for i = 0 to 9 do
    Fabric.send f ~src:(i mod 3) ~dst:((i + 2) mod 3) ~size:64 (Ping 0)
  done;
  Engine.run e;
  check Alcotest.int "no record made for a smaller burst" made (Fabric.flight_records f)

(* ---------- transport ---------- *)

let transport_setup ?(fabric_config = Fabric.default_config) ?config () =
  let e, f = setup ~config:fabric_config () in
  let t = Transport.create ?config f in
  (e, t)

let tcollect t node =
  let log = ref [] in
  Transport.set_handler t node (fun ~src payload ->
      match payload with Ping n -> log := (src, n) :: !log | _ -> ());
  log

let transport_delivers () =
  let e, t = transport_setup () in
  let log = tcollect t 1 in
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 3);
  Engine.run e;
  check Alcotest.(list (pair int int)) "delivered" [ (0, 3) ] !log

let transport_survives_loss () =
  let e, t =
    transport_setup
      ~fabric_config:{ Fabric.default_config with Fabric.loss_prob = 0.4 }
      ()
  in
  let log = tcollect t 1 in
  for i = 1 to 50 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.int "all delivered despite 40% loss" 50 (List.length !log);
  check Alcotest.bool "retransmitted" true (Transport.retransmissions t > 0);
  (* exactly once: no duplicates *)
  let sorted = List.sort compare (List.map snd !log) in
  check Alcotest.(list int) "exactly once" (List.init 50 (fun i -> i + 1)) sorted

let transport_dedup_duplication config () =
  let e, t =
    transport_setup
      ~fabric_config:{ Fabric.default_config with Fabric.dup_prob = 1.0 }
      ~config ()
  in
  let log = tcollect t 1 in
  for i = 1 to 10 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.int "deduplicated" 10 (List.length !log)

let transport_gives_up_on_dead_peer () =
  let e, t = transport_setup () in
  let _ = tcollect t 1 in
  Transport.crash t 1;
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  (* must terminate: retransmissions stop once the peer is known dead *)
  Engine.run ~max_events:100_000 e;
  check Alcotest.bool "terminates" true (Engine.pending e = 0)

let transport_crash_clears_timers () =
  let e, t =
    transport_setup
      ~fabric_config:{ Fabric.default_config with Fabric.loss_prob = 1.0 }
      ()
  in
  let _ = tcollect t 1 in
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run ~until:50.0 e;
  Transport.crash t 0;
  Engine.run ~max_events:10_000 e;
  check Alcotest.int "no stuck retransmit timers" 0 (Engine.pending e)

let transport_backoff_deterministic () =
  let rto = Transport.rto_after in
  (* pure: same flow and retry count, same timeout — twice *)
  check (Alcotest.float 0.0) "deterministic" (rto ~src:0 ~dst:1 ~retries:3)
    (rto ~src:0 ~dst:1 ~retries:3);
  (* first shot starts at the base (plus at most 10% jitter) *)
  let r0 = rto ~src:0 ~dst:1 ~retries:0 in
  check Alcotest.bool "base rto" true (r0 >= Transport.rto_us && r0 <= 1.1 *. Transport.rto_us);
  (* grows while under the cap, never exceeds cap + jitter *)
  for r = 0 to 4 do
    let a = rto ~src:0 ~dst:1 ~retries:r and b = rto ~src:0 ~dst:1 ~retries:(r + 1) in
    if b < a && a < Transport.rto_max_us then
      Alcotest.failf "backoff shrank below the cap: retries=%d %.1f -> %.1f" r a b
  done;
  for r = 0 to 20 do
    let v = rto ~src:0 ~dst:1 ~retries:r in
    if v > 1.1 *. Transport.rto_max_us then
      Alcotest.failf "backoff exceeded cap: retries=%d %.1f" r v
  done;
  (* distinct flows jitter apart (desynchronizing simultaneous probers) *)
  check Alcotest.bool "per-flow jitter" true
    (rto ~src:0 ~dst:1 ~retries:4 <> rto ~src:1 ~dst:2 ~retries:4)

let transport_backoff_collapses_probe_rate () =
  (* against an unreachable peer, backoff must spend far fewer
     retransmissions than a fixed-rate transport (one probe per [rto_us],
     up to the retry budget) over the same virtual-time horizon *)
  let horizon = 5_000.0 in
  let e, t = transport_setup () in
  let _ = tcollect t 1 in
  Fabric.partition (Transport.fabric t) 0 1;
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  Engine.run ~until:horizon e;
  let backed = Transport.retransmissions t in
  let fixed = min (int_of_float (horizon /. Transport.rto_us)) Transport.max_retries in
  if backed * 3 > fixed then
    Alcotest.failf "backoff did not collapse probing: fixed=%d backed-off=%d" fixed backed

let transport_backoff_resets_on_progress () =
  (* loss makes some bursts retransmit (counting backoffs), but once the
     partition heals and the window advances, delivery completes *)
  let e, t = transport_setup () in
  let log = tcollect t 1 in
  Fabric.partition (Transport.fabric t) 0 1;
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  ignore
    (Engine.schedule e ~after:600.0 (fun () -> Fabric.heal (Transport.fabric t) 0 1));
  Engine.run e;
  check Alcotest.int "delivered after heal" 1 (List.length !log);
  check Alcotest.bool "bursts were backed off" true (Transport.backoffs t > 0);
  (* fresh traffic after progress goes back to the base timeout: a second
     outage retransmits promptly rather than starting at the cap *)
  Fabric.partition (Transport.fabric t) 0 1;
  let before = Transport.retransmissions t in
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 2);
  Engine.run ~until:(Engine.now e +. 200.0) e;
  check Alcotest.bool "prompt first retransmission" true
    (Transport.retransmissions t > before);
  Fabric.heal (Transport.fabric t) 0 1;
  Engine.run e;
  check Alcotest.int "second message delivered" 2 (List.length !log)

(* ---------- batching ---------- *)

let transport_coalesces_same_instant () =
  (* Three same-instant sends to one peer must leave as ONE fabric frame;
     the receiver's single cumulative ack makes it two messages total
     (the legacy transport used six: 3 Data + 3 Ack). *)
  let e, t = transport_setup () in
  let log = tcollect t 1 in
  for i = 1 to 3 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.(list (pair int int)) "in order" [ (0, 1); (0, 2); (0, 3) ] (List.rev !log);
  let st = Transport.stats t in
  check Alcotest.int "one data frame" 1 st.Transport.frames;
  check Alcotest.int "three payloads" 3 st.Transport.payloads;
  check Alcotest.int "one batch + one ack on the fabric" 2
    (Fabric.messages_sent (Transport.fabric t))

let transport_unbatched_message_counts () =
  (* Unbatched: the pre-batching wire counts — one frame and one standalone
     ack per message, nothing piggybacked — and still in order. *)
  let e, t =
    transport_setup ~config:(Transport.unbatched Transport.default_config) ()
  in
  let log = tcollect t 1 in
  for i = 1 to 5 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.int "5 frames + 5 acks" 10 (Fabric.messages_sent (Transport.fabric t));
  let st = Transport.stats t in
  check Alcotest.int "five frames" 5 st.Transport.frames;
  check Alcotest.int "five payloads" 5 st.Transport.payloads;
  check Alcotest.int "five standalone acks" 5 st.Transport.standalone_acks;
  check Alcotest.int "no piggybacked acks" 0 st.Transport.piggybacked_acks;
  check Alcotest.(list (pair int int)) "in order"
    (List.init 5 (fun i -> (0, i + 1)))
    (List.rev !log)

let transport_batched_in_order_under_reorder () =
  let e, t =
    transport_setup
      ~fabric_config:
        { Fabric.default_config with Fabric.delay_prob = 0.6; loss_prob = 0.2 }
      ()
  in
  let log = tcollect t 1 in
  for i = 1 to 30 do
    ignore
      (Engine.schedule e
         ~after:(3.0 *. float_of_int i)
         (fun () -> Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)))
  done;
  Engine.run e;
  check Alcotest.(list int) "in-order exactly-once"
    (List.init 30 (fun i -> i + 1))
    (List.rev_map snd !log)

let transport_doorbell_flushes_early () =
  (* The doorbell must release the batch at the send instant instead of
     waiting out the flush window; a flow nobody rang (2 -> 1) still
     waits for it. *)
  let e, t = transport_setup () in
  let log = tcollect t 1 in
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 2);
  Transport.send t ~src:2 ~dst:1 ~size:64 (Ping 3);
  Transport.flush t 0;
  Engine.run ~until:0.0 e;
  check Alcotest.int "only the rung batch left at the send instant" 1
    (Fabric.messages_sent (Transport.fabric t));
  Engine.run e;
  check Alcotest.int "delivered" 3 (List.length !log)

let transport_crash_symmetric_cleanup () =
  (* Peers' send-side state toward a crashed node is dropped at crash time
     (not leaked until RTO), and the crashed node's receive windows die
     with it. *)
  let e, t =
    transport_setup
      ~fabric_config:{ Fabric.default_config with Fabric.loss_prob = 0.5 }
      ()
  in
  let _ = tcollect t 1 in
  for i = 1 to 10 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  ignore (Engine.schedule e ~after:10.0 (fun () -> Transport.crash t 1));
  Engine.run ~max_events:100_000 e;
  check Alcotest.int "no timers left" 0 (Engine.pending e);
  check Alcotest.int "sender state dropped" 0 (Transport.tx_backlog t);
  check Alcotest.int "receiver state dropped" 0 (Transport.rx_backlog t)

let rejoin_seq0_not_swallowed config () =
  (* Regression: a crashed-and-rejoined sender restarts at sequence 0; the
     receiver's dedup state must not swallow the fresh stream as
     duplicates of the old incarnation. *)
  let e, t = transport_setup ~config () in
  let log = tcollect t 1 in
  for i = 1 to 5 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  check Alcotest.int "first incarnation delivered" 5 (List.length !log);
  Transport.crash t 0;
  Engine.run e;
  Transport.recover t 0;
  for i = 6 to 10 do
    Transport.send t ~src:0 ~dst:1 ~size:64 (Ping i)
  done;
  Engine.run e;
  let sorted = List.sort compare (List.map snd !log) in
  check Alcotest.(list int) "rejoined incarnation delivered too"
    (List.init 10 (fun i -> i + 1))
    sorted

(* Cancelled timers never fire.  Node 0 sends one payload and rings the
   doorbell, which cancels its 2 µs flush event; node 1 answers from its
   handler and rings its own, so its reply piggybacks the ack it owed and
   cancels its delayed ack; node 0's delayed ack then acks the reply.  The
   two acks cancel both flows' RTOs.  Exactly six events fire: two
   flushes, two frame deliveries, node 0's delayed ack and its delivery. *)
let transport_cancelled_timers_never_fire () =
  let e, t =
    transport_setup ~fabric_config:{ Fabric.default_config with Fabric.jitter_us = 0.0 } ()
  in
  let log0 = tcollect t 0 in
  Transport.set_handler t 1 (fun ~src payload ->
      match payload with
      | Ping i ->
        Transport.send t ~src:1 ~dst:src ~size:64 (Ping (i + 1));
        Transport.flush t 1
      | _ -> ());
  Transport.send t ~src:0 ~dst:1 ~size:64 (Ping 1);
  Transport.flush t 0;
  Engine.run e;
  check Alcotest.(list (pair int int)) "reply delivered" [ (1, 2) ] !log0;
  check Alcotest.int "events dispatched" 6 (Engine.events_dispatched e);
  check Alcotest.int "nothing pending" 0 (Engine.pending e);
  let s = Transport.stats t in
  check Alcotest.int "frames" 2 s.Transport.frames;
  check Alcotest.int "piggybacked acks" 1 s.Transport.piggybacked_acks;
  check Alcotest.int "standalone acks" 1 s.Transport.standalone_acks;
  check Alcotest.int "no retransmission" 0 s.Transport.retransmitted;
  check Alcotest.int "nothing unacked" 0 (Transport.tx_backlog t)

let suite =
  [
    tc "fabric: delivers with latency" fabric_delivers;
    tc "fabric: size adds serialization delay" fabric_size_latency;
    tc "fabric: loss injection" fabric_loss;
    tc "fabric: duplication injection" fabric_duplication;
    tc "fabric: partitions" fabric_partition;
    tc "fabric: crash-stop" fabric_crash;
    tc "fabric: in-flight to crashed node dropped" fabric_in_flight_to_crashed;
    tc "fabric: self-send" fabric_self_send;
    tc "fabric: traffic counters" fabric_counters;
    tc "fabric: one-way partitions" fabric_oneway_partition;
    tc "fabric: heal_all clears both partition kinds" fabric_heal_all_clears_both_kinds;
    tc "fabric: perturbation spike (loss)" fabric_perturb_spike;
    tc "fabric: perturbation spike (delay+dup)" fabric_perturb_delay_and_dup;
    tc "fabric: gray node latency multiplier" fabric_slow_node;
    tc "fabric: permutation swaps delivery order" fabric_permute_swaps_order;
    tc "fabric: scramble knob arms and disarms at runtime" fabric_scramble_knob;
    tc "fabric: invalid configs rejected at construction" fabric_rejects_invalid_config;
    tc "fabric: delivered + dropped = sent + duplicated under faults"
      fabric_conservation_under_faults;
    tc "fabric: a handler that sends during delivery" fabric_handler_sends_during_delivery;
    tc "fabric: in-flight records bounded by the peak in flight" fabric_pool_bounded_by_peak;
    tc "transport: delivers" transport_delivers;
    tc "transport: exactly-once under 40% loss" transport_survives_loss;
    tc "transport: dedup under duplication"
      (transport_dedup_duplication Transport.default_config);
    tc "transport: dedup under duplication (unbatched)"
      (transport_dedup_duplication (Transport.unbatched Transport.default_config));
    tc "transport: gives up on dead peer" transport_gives_up_on_dead_peer;
    tc "transport: crash clears retransmit state" transport_crash_clears_timers;
    tc "transport: backoff schedule is deterministic" transport_backoff_deterministic;
    tc "transport: backoff collapses probe rate" transport_backoff_collapses_probe_rate;
    tc "transport: backoff resets on window progress" transport_backoff_resets_on_progress;
    tc "transport: same-instant sends coalesce into one frame"
      transport_coalesces_same_instant;
    tc "transport: unbatched mode keeps legacy message counts"
      transport_unbatched_message_counts;
    tc "transport: batched delivery is in order under reorder+loss"
      transport_batched_in_order_under_reorder;
    tc "transport: doorbell flushes before the window expires"
      transport_doorbell_flushes_early;
    tc "transport: crash cleanup is symmetric" transport_crash_symmetric_cleanup;
    tc "transport: rejoined seq 0 not swallowed (batched)"
      (rejoin_seq0_not_swallowed Transport.default_config);
    tc "transport: rejoined seq 0 not swallowed (unbatched)"
      (rejoin_seq0_not_swallowed (Transport.unbatched Transport.default_config));
    tc "transport: cancelled flush, RTO and delayed-ack timers never fire"
      transport_cancelled_timers_never_fire;
  ]
