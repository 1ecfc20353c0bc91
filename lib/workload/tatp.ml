module Rng = Zeus_sim.Rng
module Value = Zeus_store.Value

type t = {
  subscribers_per_node : int;
  nodes : int;
  remote_frac : float;
  local_reads : bool;
  rng : Rng.t;
}

let create ~subscribers_per_node ~nodes ?(remote_frac = 0.0) ?(local_reads = true) rng =
  { subscribers_per_node; nodes; remote_frac; local_reads; rng }

let sub_key _t s = 3 * s
let access_key _t s = (3 * s) + 1
let fwd_key _t s = (3 * s) + 2
let total_keys t = 3 * t.subscribers_per_node * t.nodes
let home_of_key t key = key / 3 / t.subscribers_per_node
let initial_value = Value.padded [ 7 ] ~size:48

let populate t cluster =
  Zeus_core.Cluster.populate_n cluster ~n:(total_keys t) ~owner_of:(home_of_key t)
    (fun _ -> initial_value)

let local_sub t node =
  (node * t.subscribers_per_node) + Rng.int t.rng t.subscribers_per_node

let other_node t home =
  if t.nodes = 1 then home
  else begin
    let n = Rng.int t.rng (t.nodes - 1) in
    if n >= home then n + 1 else n
  end

let sub_for_write t home =
  if Rng.chance t.rng t.remote_frac then local_sub t (other_node t home)
  else local_sub t home

(* Zeus: the load balancer plus ownership migration keep a subscriber's
   read traffic on a node that replicates it; static-sharded baselines
   issue remote reads under the same access drift (§8.3). *)
let sub_for_read t home = if t.local_reads then local_sub t home else sub_for_write t home

let gen t ~home =
  let p = float_of_int (Rng.bits53 t.rng) /. 0x1p53 in
  if p < 0.35 then
    (* GET_SUBSCRIBER_DATA *)
    Spec.read_txn [ sub_key t (sub_for_read t home) ]
  else if p < 0.45 then
    (* GET_NEW_DESTINATION *)
    Spec.read_txn [ fwd_key t (sub_for_read t home) ]
  else if p < 0.80 then
    (* GET_ACCESS_DATA *)
    Spec.read_txn [ access_key t (sub_for_read t home) ]
  else if p < 0.82 then begin
    (* UPDATE_SUBSCRIBER_DATA: subscriber bit + special facility. *)
    let s = sub_for_write t home in
    Spec.write_txn ~payload:48 ~exec_us:0.6 [ sub_key t s; access_key t s ]
  end
  else if p < 0.96 then
    (* UPDATE_LOCATION *)
    Spec.write_txn ~payload:48 ~exec_us:0.6 [ sub_key t (sub_for_write t home) ]
  else if p < 0.98 then begin
    (* INSERT_CALL_FORWARDING: read subscriber, write call-forwarding. *)
    let s = sub_for_write t home in
    Spec.write_txn ~payload:48 ~exec_us:0.6 ~reads:[ sub_key t s ] [ fwd_key t s ]
  end
  else
    (* DELETE_CALL_FORWARDING *)
    Spec.write_txn ~payload:48 ~exec_us:0.6 [ fwd_key t (sub_for_write t home) ]

let table_summary = ("TATP", 4, 51, 7, 80)
