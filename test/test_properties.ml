(* Property-based tests (qcheck): randomized operation schedules and fault
   injections, checked against the paper's invariants. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Replicas = Zeus_store.Replicas
module W = Zeus_workload

let qtest = QCheck_alcotest.to_alcotest

(* ---------- pure-structure properties ---------- *)

let prop_replicas_promote_keeps_membership =
  QCheck.Test.make ~name:"replicas: promote preserves old members" ~count:300
    QCheck.(pair (int_bound 7) (list_of_size Gen.(0 -- 5) (int_bound 7)))
    (fun (new_owner, readers) ->
      let r = Replicas.v ~owner:0 ~readers in
      let r' = Replicas.promote r ~new_owner in
      Replicas.is_owner r' new_owner
      && List.for_all (fun m -> List.mem m (Replicas.all r')) (Replicas.all r))

let prop_replicas_drop_dead_subset =
  QCheck.Test.make ~name:"replicas: drop_dead removes exactly the dead" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 6) (int_bound 9)) (int_bound 9))
    (fun (readers, dead) ->
      let r = Replicas.v ~owner:0 ~readers in
      let r' = Replicas.drop_dead r ~live:(fun n -> n <> dead) in
      (not (List.mem dead (Replicas.all r')))
      && List.for_all
           (fun m -> m = dead || List.mem m (Replicas.all r'))
           (Replicas.all r))

(* [all] no longer filters the owner out of [readers]; over random
   sequences of every constructor it must still equal the filtered
   definition, owner first and without duplicates. *)
type replicas_op = Promote of int | Add of int | Remove of int | Drop of int

let prop_replicas_all_owner_first =
  let op =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Promote n) (int_bound 7);
          map (fun n -> Add n) (int_bound 7);
          map (fun n -> Remove n) (int_bound 7);
          map (fun n -> Drop n) (int_bound 7);
        ])
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound 7)
        (map (List.sort_uniq compare) (list_size (0 -- 6) (int_bound 7)))
        (list_size (0 -- 12) op))
  in
  let filtered (r : Replicas.t) =
    match r.owner with
    | Some o -> o :: List.filter (fun n -> n <> o) r.readers
    | None -> r.readers
  in
  let ok (r : Replicas.t) =
    let all = Replicas.all r in
    all = filtered r
    && List.length (List.sort_uniq compare all) = List.length all
    && match r.owner with Some o -> List.hd all = o | None -> true
  in
  QCheck.Test.make ~name:"replicas: all is owner-first, duplicate-free, unfiltered"
    ~count:500
    (QCheck.make gen) (fun (owner, readers, ops) ->
      let r = Replicas.v ~owner ~readers in
      ok r
      && snd
           (List.fold_left
              (fun (r, good) op ->
                let r =
                  match op with
                  | Promote n -> Replicas.promote r ~new_owner:n
                  | Add n -> Replicas.add_reader r n
                  | Remove n -> Replicas.remove_reader r n
                  | Drop n -> Replicas.drop_dead r ~live:(fun m -> m <> n)
                in
                (r, good && ok r))
              (r, true) ops))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value: of_ints/to_ints roundtrip" ~count:300
    QCheck.(list_of_size Gen.(0 -- 10) int)
    (fun ints -> Value.to_ints (Value.of_ints ints) = ints)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"stats: percentile within [min,max]" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (values, p) ->
      let a = Array.of_list values in
      Array.sort compare a;
      let v = Zeus_sim.Stats.percentile_of_sorted a p in
      v >= a.(0) && v <= a.(Array.length a - 1))

(* ---------- cluster-level randomized schedules ---------- *)

(* A compact schedule: per step, who does what to which key, plus an
   optional crash point.  Running it must preserve all invariants. *)
type op = Write of int * int | Read of int * int | Migrate of int * int

let op_gen ~nodes ~keys =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun n k -> Write (n mod nodes, k mod keys)) nat nat);
        (3, map2 (fun n k -> Read (n mod nodes, k mod keys)) nat nat);
        (1, map2 (fun n k -> Migrate (n mod nodes, k mod keys)) nat nat);
      ])

let schedule_gen =
  QCheck.Gen.(
    let* ops = list_size (5 -- 60) (op_gen ~nodes:3 ~keys:8) in
    let* crash = opt (0 -- 2) in
    let* seed = 1 -- 1_000_000 in
    return (ops, crash, seed))

let print_schedule (ops, crash, seed) =
  Printf.sprintf "ops=%d crash=%s seed=%d" (List.length ops)
    (match crash with Some n -> string_of_int n | None -> "-")
    seed

(* Run the ops with at most one in-flight operation per node (the API's
   contract: a worker thread runs one transaction at a time), interleaving
   across nodes. *)
let schedule_ops c ops crash =
  let engine = Cluster.engine c in
  let per_node = Array.make 3 [] in
  List.iter
    (fun op ->
      let n = match op with Write (n, _) | Read (n, _) | Migrate (n, _) -> n in
      per_node.(n) <- op :: per_node.(n))
    ops;
  Array.iteri
    (fun n ops ->
      let ops = List.rev ops in
      let node = Cluster.node c n in
      let rec run = function
        | [] -> ()
        | op :: rest ->
          let next () =
            ignore (Engine.schedule engine ~after:2.0 (fun () -> run rest))
          in
          if not (Node.is_alive node) then ()
          else begin
            match op with
            | Write (_, k) ->
              Node.run_write node ~thread:0
                ~body:(fun ctx commit ->
                  Node.read_write ctx k
                    (fun v -> Value.of_int (Value.to_int v + 1))
                    (fun _ -> commit ()))
                (fun _ -> next ())
            | Read (_, k) ->
              Node.run_read node ~thread:1
                ~body:(fun ctx commit -> Node.read ctx k (fun _ -> commit ()))
                (fun _ -> next ())
            | Migrate (_, k) -> Node.acquire_ownership node k (fun _ -> next ())
          end
      in
      ignore (Engine.schedule engine ~after:(1.0 +. float_of_int n) (fun () -> run ops)))
    per_node;
  match crash with
  | Some victim ->
    ignore
      (Engine.schedule engine
         ~after:(10.0 +. (3.0 *. float_of_int (List.length ops) /. 2.0))
         (fun () -> Cluster.kill c victim))
  | None -> ()

let run_schedule (ops, crash, seed) =
  let c = Helpers.default_cluster ~seed:(Int64.of_int seed) () in
  for k = 0 to 7 do
    Cluster.populate c ~key:k ~owner:(k mod 3) (Value.of_int 0)
  done;
  schedule_ops c ops crash;
  Helpers.drain c ~max_us:5_000_000.0;
  match Cluster.check_invariants c with
  | Ok () -> true
  | Error msg ->
    QCheck.Test.fail_reportf "invariants: %s" msg

let prop_random_schedules_safe =
  QCheck.Test.make ~name:"cluster: random schedules preserve invariants" ~count:40
    (QCheck.make ~print:print_schedule schedule_gen)
    run_schedule

let prop_random_fault_schedules_safe =
  let gen =
    QCheck.Gen.(
      let* base = schedule_gen in
      let* loss = 0 -- 8 in
      return (base, loss))
  in
  QCheck.Test.make ~name:"cluster: random schedules + lossy network" ~count:25
    (QCheck.make
       ~print:(fun (b, loss) -> Printf.sprintf "%s loss=%d%%" (print_schedule b) loss)
       gen)
    (fun ((ops, crash, seed), loss) ->
      let fabric =
        {
          Zeus_net.Fabric.default_config with
          Zeus_net.Fabric.loss_prob = float_of_int loss /. 100.0;
          dup_prob = 0.02;
          delay_prob = 0.2;
        }
      in
      let c = Helpers.default_cluster ~fabric ~seed:(Int64.of_int seed) () in
      for k = 0 to 7 do
        Cluster.populate c ~key:k ~owner:(k mod 3) (Value.of_int 0)
      done;
      schedule_ops c ops crash;
      Helpers.drain c ~max_us:8_000_000.0;
      match Cluster.check_invariants c with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "invariants: %s" msg)

(* Concurrent acquires from every node: exactly one owner at quiescence,
   whatever the interleaving. *)
let prop_single_owner_under_contention =
  QCheck.Test.make ~name:"ownership: single owner under random contention" ~count:30
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 5))
    (fun (seed, requesters) ->
      let c = Helpers.default_cluster ~nodes:6 ~seed:(Int64.of_int seed) () in
      Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
      let engine = Cluster.engine c in
      let rng = Engine.fork_rng engine in
      for i = 1 to requesters do
        ignore
          (Engine.schedule engine
             ~after:(Zeus_sim.Rng.float rng 10.0)
             (fun () -> Node.acquire_ownership (Cluster.node c i) 1 (fun _ -> ())))
      done;
      Helpers.drain c ~max_us:3_000_000.0;
      let owners =
        List.filter
          (fun i -> Node.role (Cluster.node c i) 1 = Some Zeus_store.Types.Owner)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.length owners = 1)

(* Increment counters from several nodes; the final value must equal the
   number of committed increments (no lost updates through migrations). *)
let prop_no_lost_updates =
  QCheck.Test.make ~name:"txn: no lost updates across migrations" ~count:25
    QCheck.(pair (int_range 1 1_000_000) (int_range 5 30))
    (fun (seed, increments) ->
      let c = Helpers.default_cluster ~seed:(Int64.of_int seed) () in
      Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
      let engine = Cluster.engine c in
      let rng = Engine.fork_rng engine in
      let committed = ref 0 in
      (* each node runs its share of increments sequentially; nodes race
         with each other through ownership migration *)
      for node = 0 to 2 do
        let mine = (increments + node) / 3 in
        let rec chain i =
          if i < mine then
            ignore
              (Engine.schedule engine
                 ~after:(Zeus_sim.Rng.float rng 10.0)
                 (fun () ->
                   Node.run_write (Cluster.node c node) ~thread:0
                     ~body:(fun ctx commit ->
                       Node.read_write ctx 1
                         (fun v -> Value.of_int (Value.to_int v + 1))
                         (fun _ -> commit ()))
                     (fun o ->
                       if o = Zeus_store.Txn.Committed then incr committed;
                       chain (i + 1))))
        in
        chain 0
      done;
      Helpers.drain c ~max_us:5_000_000.0;
      match Helpers.read_value c 0 1 with
      | Some v -> v = !committed
      | None -> false)

(* ---------- ownership request routing ---------- *)

module OwnC = Zeus_ownership.Core
module OwnM = Zeus_ownership.Messages

(* The list-built definitions the core's allocation-free walks replaced. *)
let reference_driver ~live ~self ~rr dirs =
  let live_dirs = List.filter (fun d -> live.(d)) dirs in
  let candidates =
    match List.filter (fun d -> d <> self) live_dirs with [] -> live_dirs | l -> l
  in
  List.nth candidates (rr mod List.length candidates)

let reference_arbiters ~live ~dirs ~owner ~data_from ~kind ~requester =
  let dedup nodes =
    List.rev (List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) [] nodes)
  in
  let extra =
    (match owner with Some o when live.(o) -> [ o ] | _ -> [])
    @ (match data_from with Some nd -> [ nd ] | None -> [])
    @ match kind with OwnM.Remove_reader r when live.(r) -> [ r ] | _ -> []
  in
  List.filter (fun a -> a <> requester) (dedup (List.filter (fun d -> live.(d)) dirs @ extra))

(* Random views of up to six nodes, directory lists with duplicates,
   owners, readers, all three kinds — a [Remove_reader] target may be
   live or dead — and the data source the driver would pick (the owner
   if live, else the first live reader) or none. *)
let routing_case =
  let open QCheck.Gen in
  let* n = 1 -- 6 in
  let node = 0 -- (n - 1) in
  let* live = array_size (return n) bool in
  let* dirs = list_size (1 -- 4) node in
  let* owner = opt node in
  let* readers = list_size (0 -- 3) node in
  let* requester = node in
  let* self = node in
  let* rr = 0 -- 1000 in
  let* kind =
    oneof [ return OwnM.Acquire; return OwnM.Add_reader; map (fun r -> OwnM.Remove_reader r) node ]
  in
  let* needs_data = bool in
  let data_from =
    if not needs_data then None
    else
      match owner with
      | Some o when live.(o) -> Some o
      | _ -> List.find_opt (fun r -> live.(r)) readers
  in
  return (live, dirs, owner, data_from, kind, requester, self, rr)

let print_routing (live, dirs, owner, data_from, kind, requester, self, rr) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let opt = function Some n -> string_of_int n | None -> "-" in
  Format.asprintf "live=[%s] dirs=[%s] owner=%s data_from=%s kind=%a requester=%d self=%d rr=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_bool live)))
    (ints dirs) (opt owner) (opt data_from) OwnM.pp_kind kind requester self rr

let prop_routing_matches_lists =
  QCheck.Test.make ~name:"ownership: driver choice and arbiter list match their list definitions"
    ~count:2000 (QCheck.make ~print:print_routing routing_case)
    (fun (live, dirs, owner, data_from, kind, requester, self, rr) ->
      let arbiters_ok =
        OwnC.arbiters ~live ~dirs ~owner ~data_from ~kind ~requester
        = reference_arbiters ~live ~dirs ~owner ~data_from ~kind ~requester
      in
      let driver_ok =
        (not (List.exists (fun d -> live.(d)) dirs))
        || OwnC.pick_driver ~live ~self ~rr dirs = reference_driver ~live ~self ~rr dirs
      in
      arbiters_ok && driver_ok)

let suite =
  [
    qtest prop_replicas_promote_keeps_membership;
    qtest prop_replicas_drop_dead_subset;
    qtest prop_replicas_all_owner_first;
    qtest prop_routing_matches_lists;
    qtest prop_value_roundtrip;
    qtest prop_percentile_within_range;
    qtest prop_random_schedules_safe;
    qtest prop_random_fault_schedules_safe;
    qtest prop_single_owner_under_contention;
    qtest prop_no_lost_updates;
  ]
