(* Shared test plumbing: small clusters, drains, common checks. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let default_cluster ?(nodes = 3) ?(record_history = true) ?(seed = 42L) ?fabric () =
  let config =
    {
      Config.default with
      Config.nodes;
      record_history;
      seed;
      fabric = Option.value fabric ~default:Config.default.Config.fabric;
    }
  in
  Cluster.create ~config ()

(* Node [node_id]'s copy of [key], if it holds one. *)
let obj_at cluster node_id key =
  let o = Zeus_store.Table.find (Node.table (Cluster.node cluster node_id)) key in
  if o == Zeus_store.Obj.dummy then None else Some o

let drain ?(max_us = 100_000.0) cluster = Cluster.run_quiesce cluster ~max_us ()

(* Run a write transaction to completion (drains the simulation). *)
let write_txn cluster node_id ~keys ~value =
  let node = Cluster.node cluster node_id in
  let result = ref None in
  Node.run_write node ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      let rec go = function
        | [] -> commit ()
        | key :: rest -> Node.write ctx key value (fun () -> go rest)
      in
      go keys)
    (fun outcome -> result := Some outcome);
  drain cluster;
  match !result with
  | Some o -> o
  | None -> Alcotest.fail "write transaction never completed"

let read_raw cluster node_id key =
  let node = Cluster.node cluster node_id in
  let result = ref None in
  Node.run_read node ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.read ctx key (fun v ->
          result := Some v;
          commit ()))
    (fun _ -> ());
  drain cluster;
  !result

(* Convenience: integer-coded values, as used throughout the tests. *)
let read_value cluster node_id key = Option.map Value.to_int (read_raw cluster node_id key)

let expect_committed name outcome =
  match outcome with
  | Txn.Committed -> ()
  | Txn.Aborted reason ->
    Alcotest.failf "%s: aborted with %s" name (Format.asprintf "%a" Txn.pp_abort reason)

let expect_invariants cluster =
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violation: %s" msg

let role_name = function
  | Some Zeus_store.Types.Owner -> "owner"
  | Some Zeus_store.Types.Reader -> "reader"
  | None -> "none"
