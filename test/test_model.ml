(* Model-checking tests: the real-core harness's scenario table (the
   stand-in for the paper's TLA+ checking, §8) and the soundness of the
   harness's own reductions.  Full-cap runs are the "verify" experiment. *)

module E = Zeus_model.Explorer
module H = Zeus_model.Core_harness
module O = H.Ownership
module OC = Zeus_ownership.Core
module OM = Zeus_ownership.Messages
module ODir = Zeus_ownership.Directory

let tc = Helpers.tc

(* Rows whose full cap is at most [exhaust_cap] run at it (so closing is
   checked); the larger ones run at [large_cap]. *)
let exhaust_cap = 40_000
let large_cap = 10_000

let run_row (sc : H.scenario) () =
  let max_states = if sc.H.cap <= exhaust_cap then sc.H.cap else large_cap in
  let stats = sc.H.explore ~max_states in
  (match H.verdict sc ~max_states stats with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s: %s%t" sc.H.name msg (fun ppf ->
        Option.iter
          (fun (pp, _) -> Format.fprintf ppf "@.state:@.%t" pp)
          stats.E.violation));
  Alcotest.(check bool) "explored something" true (stats.E.explored > 100)

(* The explorer keeps only digests; a violation's trace is rebuilt by
   replaying [next] along them, and must be a shortest path from an
   initial state. *)
let explorer_rebuilds_trace () =
  let next n = if n < 20 then [ n + 1; n + 3 ] else [] in
  let bfs ~bad =
    E.bfs ~init:[ 0 ] ~next ~key:string_of_int
      ~invariant:(fun n -> if n = bad then Error "bad" else Ok ())
      ()
  in
  let stats = bfs ~bad:7 in
  Alcotest.(check (list int)) "shortest path" [ 0; 1; 4; 7 ] stats.E.trace;
  Alcotest.(check bool) "not exhausted" false stats.E.exhausted;
  let clean = bfs ~bad:(-1) in
  Alcotest.(check bool) "exhausted" true clean.E.exhausted;
  Alcotest.(check int) "every state once" 23 clean.E.explored;
  Alcotest.(check (list int)) "no trace" [] clean.E.trace

(* "ownership core: x" is tested as "ownership: x". *)
let test_name (sc : H.scenario) =
  let name = sc.H.name in
  match String.index_opt name ':' with
  | Some i when i >= 5 && String.sub name (i - 5) 5 = " core" ->
    String.sub name 0 (i - 5) ^ String.sub name i (String.length name - i)
  | _ -> name

(* Every NACK [Ownership.normalize] drops is a no-op when delivered: no
   effect but [Flush], and the receiving core's fingerprint unchanged. *)
let nack_reduction_is_sound () =
  let w = O.init_world O.default_config in
  let nack ?(epoch = O.epoch w) origin seq =
    {
      H.m_src = 0;
      m_dst = origin;
      payload =
        OM.O_nack
          { req_id = { OM.origin; seq }; key = 0; o_ts = None; reason = OM.Busy; epoch };
    }
  in
  O.issue w 1;
  (* n1#0 reaches its verdict *)
  O.post w (nack 1 0);
  O.take w (nack 1 0);
  (* a view change: epoch 1, n2 dead *)
  O.crash w 2;
  O.tick w;
  O.issue w 1;
  O.issue w 3;
  let finished = nack 1 0 and live = nack 1 1 and stale = nack ~epoch:0 3 0 in
  List.iter (O.post w) [ finished; live; live; stale ];
  let before = O.net w in
  let after = O.copy w in
  O.normalize after;
  let count m l = List.length (List.filter (( = ) m) l) in
  let dropped m = count m before - count m (O.net after) in
  Alcotest.(check (list int)) "finished, live copy, stale dropped" [ 1; 1; 1 ]
    (List.map dropped [ finished; live; stale ]);
  let env =
    {
      OC.now = 0.0;
      epoch = O.epoch w;
      live = Array.init 4 (fun i -> i <> 2);
      self_alive = true;
      trace_on = false;
    }
  in
  let deliver core (m : H.msg) =
    snd
      (OC.handle ~dir:(fun _ -> [ 0; 1; 2 ]) core
         (OC.Deliver
            { src = m.H.m_src; payload = m.H.payload; facts = OC.no_facts; env }))
  in
  let no_op name core m =
    let fp = OC.fingerprint core in
    let effs = deliver core m in
    Alcotest.(check bool) (name ^ ": only Flush") true (effs = [ OC.Flush ]);
    Alcotest.(check string) (name ^ ": core unchanged") fp (OC.fingerprint core)
  in
  let decides seq core m =
    List.exists
      (function OC.Unblock { seq = s; _ } -> s = seq | _ -> false)
      (deliver core m)
  in
  no_op "finished request" (OC.copy (O.core w 1)) finished;
  (* n3#0 is still undecided: only the epoch fence makes [stale] a no-op *)
  Alcotest.(check bool) "n3#0 undecided" true
    (decides 0 (OC.copy (O.core w 3)) (nack 3 0));
  no_op "older epoch" (OC.copy (O.core w 3)) stale;
  (* the kept copy decides n1#1; the dropped duplicate then does nothing *)
  let c = OC.copy (O.core w 1) in
  Alcotest.(check bool) "kept copy decides" true (decides 1 c live);
  no_op "duplicate" c live

(* The net's part of a world key depends on the messages' values only: two
   worlds whose in-flight messages are equal but share their fields
   differently are one world.  (Marshalled with sharing, the net key split
   112 such pairs of contention + duplication worlds.) *)
let net_key_ignores_sharing () =
  let module R = Zeus_store.Replicas in
  let fresh () = (R.v ~owner:3 ~readers:[ 0; 1; 2 ], [ 0; 1; 2 ]) in
  let msgs (r1, a1) (r2, a2) =
    let req_id = { OM.origin = 3; seq = 0 } in
    let o_ts = { Zeus_store.Ots.version = 1; node = 1 } in
    [
      { H.m_src = 0; m_dst = 1;
        payload =
          OM.O_ack
            { req_id; key = 0; o_ts; new_replicas = r1; arbiters = a1; sender = 0;
              data = None; epoch = 0 } };
      { H.m_src = 1; m_dst = 3;
        payload =
          OM.O_resp
            { req_id; key = 0; o_ts; new_replicas = r2; arbiters = a2; data = None;
              epoch = 0 } };
    ]
  in
  let world ms =
    let w = O.init_world O.default_config in
    List.iter (O.post w) ms;
    w
  in
  let shared = fresh () in
  Alcotest.(check string) "same key"
    (O.key O.default_config (world (msgs shared shared)))
    (O.key O.default_config (world (msgs (fresh ()) (fresh ()))))

(* A scripted handover: node 3, a non-replica, acquires key 0 over a
   fault-free net.  The agent's store code, run on node 3's table, installs
   a valid owner copy at the timestamp the directory granted. *)
let scripted_handover () =
  let open Zeus_store in
  let w = O.init_world O.default_config in
  O.issue w 3;
  let rec drain () = match O.net w with m :: _ -> O.take w m; drain () | [] -> () in
  drain ();
  let entry = ODir.find (OC.directory (O.core w 0)) 0 in
  Alcotest.(check bool) "directory entry" true (entry != ODir.dummy);
  Alcotest.(check (option int)) "directory names n3" (Some 3)
    entry.ODir.replicas.Replicas.owner;
  let obj = Table.find (O.table w 3) 0 in
  Alcotest.(check bool) "object installed" true (obj != Obj.dummy);
  Alcotest.(check bool) "valid owner" true
    (Obj.is_owner obj && obj.Obj.o_state = Types.O_valid);
  Alcotest.(check bool) "at the granted o_ts" true
    (Ots.equal obj.Obj.o_ts entry.ODir.o_ts && Ots.compare entry.ODir.o_ts Ots.zero > 0)

let suite =
  List.map (fun sc -> tc (test_name sc) (run_row sc)) H.scenarios
  @ [
      tc "ownership: a scripted handover installs the owner copy" scripted_handover;
      tc "ownership: normalize drops only no-op NACKs" nack_reduction_is_sound;
      tc "ownership: net key ignores physical sharing" net_key_ignores_sharing;
      tc "explorer: trace rebuilt from digests" explorer_rebuilds_trace;
    ]
