(* Regression tests for protocol bugs found by the model checker and the
   deterministic fault-injection sweeps (see EXPERIMENTS.md, "Formal
   verification").  Each case replays the class of schedule that exposed
   the bug.

   1. A RESP reaching a requester that already applied its win must still
      re-broadcast VALs (arbiters were stuck pending forever).
   2. A stale RESP must not clobber a newer pending arbitration.
   3. Replacing a buffered arbitration with its successor (base_ts match)
      must first apply it: its VAL may never arrive, and losing the
      demotion left two live owners. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

let tc = Helpers.tc

(* The deterministic schedule generator that exposed bugs 1-3: per-node
   sequential chains of random writes/reads/migrations over 8 keys, with a
   timed crash, under loss + duplication + reordering. *)
let run_schedule ~seed ~loss ~crash ~nops =
  let fabric =
    {
      Zeus_net.Fabric.default_config with
      Zeus_net.Fabric.loss_prob = float_of_int loss /. 100.0;
      dup_prob = 0.02;
      delay_prob = 0.2;
    }
  in
  let config =
    {
      Config.default with
      Config.nodes = 3;
      record_history = true;
      seed = Int64.of_int seed;
      fabric;
    }
  in
  let c = Cluster.create ~config () in
  for k = 0 to 7 do
    Cluster.populate c ~key:k ~owner:(k mod 3) (Value.of_int 0)
  done;
  let engine = Cluster.engine c in
  let rng = Zeus_sim.Rng.create (Int64.of_int ((seed * 7) + 1)) in
  for n = 0 to 2 do
    let node = Cluster.node c n in
    let rec chain i =
      if i < nops && Node.is_alive node then begin
        let k = Zeus_sim.Rng.int rng 8 in
        let roll = Zeus_sim.Rng.int rng 9 in
        let next () = ignore (Engine.schedule engine ~after:2.0 (fun () -> chain (i + 1))) in
        if roll < 5 then
          Node.run_write node ~thread:0
            ~exec_us:0.0 ~body:(fun ctx commit ->
              Node.read_write ctx k
                (fun v -> Value.of_int (Value.to_int v + 1))
                (fun _ -> commit ()))
            (fun _ -> next ())
        else if roll < 8 then
          Node.run_read node ~thread:1
            ~exec_us:0.0 ~body:(fun ctx commit -> Node.read ctx k (fun _ -> commit ()))
            (fun _ -> next ())
        else Node.acquire_ownership node k (fun _ -> next ())
      end
    in
    ignore (Engine.schedule engine ~after:(1.0 +. float_of_int n) (fun () -> chain 0))
  done;
  (match crash with
  | Some (victim, at) ->
    ignore (Engine.schedule engine ~after:at (fun () -> Cluster.kill c victim))
  | None -> ());
  Cluster.run_quiesce c ~max_us:8_000_000.0 ();
  match Cluster.check_invariants c with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "seed=%d loss=%d: %s" seed loss msg

(* The exact schedules that exposed bug 3 (two live owners). *)
let known_bad_schedules () =
  run_schedule ~seed:112 ~loss:8 ~crash:(Some (0, 90.0)) ~nops:25;
  run_schedule ~seed:158 ~loss:8 ~crash:(Some (0, 90.0)) ~nops:25;
  run_schedule ~seed:91 ~loss:4 ~crash:(Some (1, 70.0)) ~nops:25

(* A compact sweep across the fault configurations that found the bugs. *)
let sweep () =
  for seed = 1 to 60 do
    List.iter
      (fun (loss, crash) -> run_schedule ~seed ~loss ~crash ~nops:20)
      [ (4, Some (1, 30.0)); (8, Some (0, 90.0)); (6, Some (2, 25.0)); (5, None) ]
  done

(* Bugs 1-2 are covered exhaustively by the model tests; this checks the
   concrete implementation path: a VAL lost across an epoch change is
   recovered by arb-replay + RESP even when the requester already applied. *)
let lost_val_recovered_by_replay () =
  (* drop every 15th message: occasionally a VAL, forcing replays *)
  let fabric = { Zeus_net.Fabric.default_config with Zeus_net.Fabric.loss_prob = 0.15 } in
  let c = Helpers.default_cluster ~fabric ~seed:5L () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  for i = 1 to 10 do
    Helpers.expect_committed "migrating write"
      (Helpers.write_txn c (i mod 3) ~keys:[ 1 ] ~value:(Value.of_int i))
  done;
  Helpers.drain c ~max_us:3_000_000.0;
  Helpers.expect_invariants c

let suite =
  [
    tc "known-bad schedules (two-owners bug)" known_bad_schedules;
    tc "fault-schedule sweep (240 runs)" sweep;
    tc "lost VAL recovered by arb-replay" lost_val_recovered_by_replay;
  ]
