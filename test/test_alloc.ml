(* Allocation budget of the sans-I/O protocol cores.

   Each test scripts a full protocol round through [Core.handle] on
   hand-built states — a remote Acquire (REQ -> INV -> ACK -> VAL across
   three ownership cores) and a reliable-commit INV/ACK/VAL round — and
   bounds the minor words allocated per input.  The bounds sit about 25 %
   above the measured figures: a core that starts formatting debug strings
   or rebuilding constant lists on every input fails here before it shows
   up as a benchmark regression. *)

module OwnC = Zeus_ownership.Core
module OwnM = Zeus_ownership.Messages
module ComC = Zeus_commit.Core
module Config = Zeus_core.Config
module Replicas = Zeus_store.Replicas
module Txn = Zeus_store.Txn
module Value = Zeus_store.Value

let tc = Helpers.tc
let nodes = 3
let warmup = 20
let rounds = 200

(* [handle input], adding the minor words it allocated to [acc] when
   [measure]. *)
let metered ~measure ~acc handle input =
  let before = Gc.minor_words () in
  let effs = handle input in
  if measure then acc := !acc +. (Gc.minor_words () -. before);
  effs

let check_budget name ~inputs ~words ~bound =
  let per_input = words /. float_of_int inputs in
  if per_input > bound then
    Alcotest.failf "%s: %.1f minor words per input (budget %.0f)" name per_input bound

(* ---------- ownership: remote Acquire ----------------------------------- *)

let own_env =
  { OwnC.now = 0.0; epoch = 0; live = Array.make nodes true; self_alive = true;
    trace_on = false }

(* Key [k] starts owned by node 0 with node 1 as reader; node 2 (a
   non-replica, so the driver designates node 0 to ship the data) acquires
   it.  With three directory replicas node 2 drives its own request. *)
let ownership_acquire_budget () =
  let config = Config.default in
  let dir key = Config.dir_nodes_for config ~key in
  let cores = Array.init nodes (fun self -> OwnC.create ~self ~nodes ()) in
  let handle i input = snd (OwnC.handle ~dir cores.(i) input) in
  let total = warmup + rounds in
  let replicas = Replicas.v ~owner:0 ~readers:[ 1 ] in
  for key = 0 to total - 1 do
    Array.iteri (fun i _ -> ignore (handle i (OwnC.Api_seed { key; replicas }))) cores
  done;
  let acc = ref 0.0 and inputs = ref 0 and granted = ref 0 in
  let net = Queue.create () in
  let run ~measure input dst =
    let effs = metered ~measure ~acc (handle dst) input in
    if measure then incr inputs;
    List.iter
      (function
        | OwnC.Send { dst = d; payload; _ } -> Queue.add (dst, d, payload) net
        | OwnC.Send_ack_local_data
            { dst = d; req_id; key; o_ts; new_replicas; arbiters; epoch } ->
          (* the interpreter's job: attach this node's copy of the data *)
          let data = Some { OwnM.value = Value.of_int key; t_version = 1 } in
          let ack =
            OwnM.O_ack
              { req_id; key; o_ts; new_replicas; arbiters; sender = dst; data; epoch }
          in
          Queue.add (dst, d, ack) net
        | OwnC.Apply_requester _ -> incr granted
        | _ -> ())
      effs
  in
  for key = 0 to total - 1 do
    let measure = key >= warmup in
    run ~measure
      (OwnC.Api_request { key; kind = OwnM.Acquire; facts = OwnC.no_facts; env = own_env })
      2;
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      run ~measure (OwnC.Deliver { src; payload; facts = OwnC.no_facts; env = own_env }) dst
    done
  done;
  Alcotest.(check int) "inputs per Acquire" 9 (!inputs / rounds);
  Alcotest.(check int) "every Acquire completed" total !granted;
  check_budget "ownership Acquire" ~inputs:!inputs ~words:!acc ~bound:120.0

(* ---------- commit: one INV/ACK/VAL round ------------------------------- *)

let com_env = { ComC.epoch = 0; live = Array.make nodes true; trace_on = false }

let commit_round_budget () =
  let cores = Array.init nodes (fun self -> ComC.create ~self ~nodes ()) in
  let acc = ref 0.0 and inputs = ref 0 in
  let net = Queue.create () in
  let durable = ref 0 in
  let run ~measure input dst =
    let effs = metered ~measure ~acc (fun i -> snd (ComC.handle cores.(dst) i)) input in
    if measure then incr inputs;
    List.iter
      (function
        | ComC.Send { dst = d; payload; _ } -> Queue.add (dst, d, payload) net
        | ComC.Validate_local _ -> incr durable
        | _ -> ())
      effs
  in
  let total = warmup + rounds in
  for key = 0 to total - 1 do
    let measure = key >= warmup in
    let updates = [ { Txn.key; version = 1; data = Value.of_int key; freed = false } ] in
    run ~measure
      (ComC.Api_commit
         { thread = 0; updates; replica_sets = [ [ 0; 1; 2 ] ]; has_durable = false;
           env = com_env })
      0;
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      run ~measure (ComC.Deliver { src; payload; env = com_env }) dst
    done
  done;
  Alcotest.(check int) "inputs per commit round" 7 (!inputs / rounds);
  Alcotest.(check int) "every commit durable" total !durable;
  Alcotest.(check int) "nothing left stored" 0
    (Array.fold_left (fun a c -> a + ComC.stored_invs c) 0 cores);
  check_budget "commit round" ~inputs:!inputs ~words:!acc ~bound:69.0

let suite =
  [
    tc "ownership core: remote Acquire allocation budget" ownership_acquire_budget;
    tc "commit core: INV/ACK/VAL allocation budget" commit_round_budget;
  ]
