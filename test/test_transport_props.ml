(* qcheck properties for the reliable transport under fault injection:
   random loss/duplication/straggler-delay/permutation rates and a random
   send schedule over a 3-node fabric.  Every transport mode must deliver
   every payload exactly once per flow with bounded state; the ordered
   modes, batched and unbatched, must additionally deliver in order, and on
   the unordered
   mode the commit protocol's sequence-aware clear marks must still drain
   every committed transaction's VAL/INV stream. *)

module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport

type Zeus_net.Msg.payload += Msg of int

let qtest = QCheck_alcotest.to_alcotest

(* (loss, dup, reorder), [(src, dst, at_us); ...] — loss stays well under
   the give-up threshold ([Transport.max_retries] go-back-N rounds), so delivery
   always completes and exactly-once is the right property. *)
let case_gen =
  QCheck.Gen.(
    pair
      (triple
         (float_bound_inclusive 0.35)
         (float_bound_inclusive 0.5)
         (float_bound_inclusive 0.5))
      (list_size (1 -- 80)
         (triple (int_bound 2) (int_bound 2) (float_bound_inclusive 300.0))))

let print_case ((loss, dup, reorder), sends) =
  Printf.sprintf "loss=%.2f dup=%.2f reorder=%.2f sends=[%s]" loss dup reorder
    (String.concat "; "
       (List.map (fun (s, d, at) -> Printf.sprintf "%d->%d@%.0f" s d at) sends))

let case = QCheck.make ~print:print_case case_gen

let log tbl key v =
  let r =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace tbl key r;
      r
  in
  r := v :: !r

(* Returns per-flow send and delivery sequences (in order) plus the engine
   and transport for state assertions. *)
let run_case ?(permute = 0.0) ?(unordered = false) ~batched
    ((loss, dup, reorder), sends) =
  let e = Engine.create () in
  let fcfg =
    {
      Fabric.default_config with
      Fabric.loss_prob = loss;
      dup_prob = dup;
      delay_prob = reorder;
      permute_prob = permute;
    }
  in
  let f = Fabric.create e ~nodes:3 fcfg in
  let config =
    if batched then Transport.default_config
    else Transport.unbatched Transport.default_config
  in
  let config = if unordered then Transport.unordered config else config in
  let t = Transport.create ~config f in
  let sent = Hashtbl.create 16 and delivered = Hashtbl.create 16 in
  for node = 0 to 2 do
    Transport.set_handler t node (fun ~src payload ->
        match payload with Msg i -> log delivered (src, node) i | _ -> ())
  done;
  List.iteri
    (fun i (src, dst, at) ->
      ignore
        (Engine.schedule e ~after:at (fun () ->
             log sent (src, dst) i;
             Transport.send t ~src ~dst ~size:64 (Msg i))))
    sends;
  Engine.run ~max_events:5_000_000 e;
  (e, t, sent, delivered)

let flows sent delivered =
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) sent;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) delivered;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let got tbl key = match Hashtbl.find_opt tbl key with Some r -> List.rev !r | None -> []

let exactly_once ?permute ?unordered ~batched c =
  let _, _, sent, delivered = run_case ?permute ?unordered ~batched c in
  List.for_all
    (fun key ->
      let s = List.sort compare (got sent key)
      and d = List.sort compare (got delivered key) in
      if s <> d then
        QCheck.Test.fail_reportf "flow %d->%d: sent %d payloads, delivered %d (%s)"
          (fst key) (snd key) (List.length s) (List.length d)
          (if List.length d > List.length s then "duplicates" else "losses")
      else true)
    (flows sent delivered)

let in_order ~batched c =
  let _, _, sent, delivered = run_case ~batched c in
  List.for_all
    (fun key ->
      let s = got sent key and d = got delivered key in
      s = d
      || QCheck.Test.fail_reportf "flow %d->%d delivered out of order" (fst key)
           (snd key))
    (flows sent delivered)

let bounded_state ?permute ?unordered ~batched c =
  let e, t, _, _ = run_case ?permute ?unordered ~batched c in
  Engine.pending e = 0
  && Transport.tx_backlog t = 0
  && Transport.rx_backlog t = 0
  || QCheck.Test.fail_reportf "residual state: pending=%d tx_backlog=%d rx_backlog=%d"
       (Engine.pending e) (Transport.tx_backlog t) (Transport.rx_backlog t)

(* ---- commit streams on a hostile fabric ----------------------------------
   A real cluster on [Transport.unordered] over a lossy, duplicating,
   permuting fabric: every committed transaction's VAL/INV stream must
   still terminate — no wedged coordinator slots, no stored or buffered
   R-INVs left behind, and every replica converged on the final value.
   This is the qcheck face of the model checker's reordered-links
   scenarios: same protocol property, driven through the full runtime. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Com = Zeus_commit
module Value = Zeus_store.Value

let commit_case_gen =
  QCheck.Gen.(
    triple
      (triple
         (float_bound_inclusive 0.25)
         (float_bound_inclusive 0.4)
         (float_bound_inclusive 0.5))
      (5 -- 25) (* txns per thread *)
      (0 -- 1000) (* seed *))

let print_commit_case ((loss, dup, permute), txns, seed) =
  Printf.sprintf "loss=%.2f dup=%.2f permute=%.2f txns=%d seed=%d" loss dup permute
    txns seed

let commit_case = QCheck.make ~print:print_commit_case commit_case_gen

let commit_streams_terminate ((loss, dup, permute), txns, seed) =
  let config =
    {
      Config.default with
      Config.nodes = 3;
      seed = Int64.of_int seed;
      fabric =
        {
          Fabric.default_config with
          Fabric.loss_prob = loss;
          dup_prob = dup;
          permute_prob = permute;
        };
      transport = Transport.unordered Transport.default_config;
    }
  in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 0);
  (* two pipelines on the coordinator, interleaved keys: partial streams
     and extra-val VALs both occur *)
  let n0 = Cluster.node c 0 in
  for thread = 0 to 1 do
    let rec chain i =
      if i < txns then begin
        let key = 1 + (i mod 2) in
        Node.run_write n0 ~thread
          ~exec_us:0.0 ~body:(fun ctx commit ->
            Node.read_write ctx key
              (fun v -> Value.of_int (Value.to_int v + 1))
              (fun _ -> commit ()))
          (fun _ -> chain (i + 1))
      end
    in
    chain 0
  done;
  Cluster.run_quiesce c ~max_us:3_000_000.0 ();
  let stuck ~what n =
    QCheck.Test.fail_reportf "node %d: %s after quiesce" n what
  in
  for n = 0 to 2 do
    let a = Node.commit_agent (Cluster.node c n) in
    if Com.Agent.inflight a <> 0 then stuck ~what:"open coordinator slots" n;
    if Com.Agent.stored_invs a <> 0 then stuck ~what:"stored R-INVs" n;
    if Com.Agent.buffered_invs a <> 0 then stuck ~what:"buffered R-INVs" n
  done;
  List.for_all
    (fun key ->
      let v n =
        Option.map (fun o -> Value.to_int o.Zeus_store.Obj.data) (Helpers.obj_at c n key)
      in
      let v0 = v 0 in
      (v0 <> None && v 1 = v0 && v 2 = v0)
      || QCheck.Test.fail_reportf "key %d: replicas diverged" key)
    [ 1; 2 ]

let suite =
  [
    qtest
      (QCheck.Test.make ~name:"transport: exactly-once per flow (batched)" ~count:30
         case (exactly_once ~batched:true));
    qtest
      (QCheck.Test.make ~name:"transport: exactly-once per flow (unbatched)" ~count:30
         case (exactly_once ~batched:false));
    qtest
      (QCheck.Test.make ~name:"transport: in-order delivery per flow (batched)"
         ~count:30 case (in_order ~batched:true));
    qtest
      (QCheck.Test.make ~name:"transport: in-order delivery per flow (unbatched)"
         ~count:30 case (in_order ~batched:false));
    qtest
      (QCheck.Test.make ~name:"transport: quiescent and bounded state (batched)"
         ~count:30 case (bounded_state ~batched:true));
    qtest
      (QCheck.Test.make ~name:"transport: quiescent and bounded state (unbatched)"
         ~count:30 case (bounded_state ~batched:false));
    qtest
      (QCheck.Test.make
         ~name:"transport: exactly-once per flow (unordered + permuting)" ~count:30
         case
         (exactly_once ~permute:0.4 ~unordered:true ~batched:true));
    qtest
      (QCheck.Test.make
         ~name:"transport: quiescent and bounded state (unordered + permuting)"
         ~count:30 case
         (bounded_state ~permute:0.4 ~unordered:true ~batched:true));
    qtest
      (QCheck.Test.make
         ~name:"transport: quiescent and bounded state (unbatched, unordered + permuting)"
         ~count:30 case
         (bounded_state ~permute:0.4 ~unordered:true ~batched:false));
    qtest
      (QCheck.Test.make
         ~name:"commit: streams terminate on lossy/dup/unordered fabric" ~count:25
         commit_case commit_streams_terminate);
  ]
