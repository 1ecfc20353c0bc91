(* Bounded exploration of the REAL sans-I/O protocol cores — the repo's
   one model checker, the executable analogue of the paper's TLA+ (§8).

   The harness drives the production state machines —
   {!Zeus_ownership.Core} and {!Zeus_commit.Core} — through
   {!Explorer.bfs}.  A world holds one core and one real {!Table} per
   node, plus a model-level interpreter around them: a message multiset,
   armed timers, and the membership epoch.  Transitions feed real inputs
   (deliveries, API calls, timer fires, view changes).  Store facts are
   sampled, and store effects applied, by the agents' own functions
   ({!OA.facts}, {!OA.apply_store}, {!CA.apply_store}) on the node's
   table; the interpreter only routes messages and timers.  So every
   interleaving the checker visits is a behaviour the deployed code can
   exhibit, store code included.

   Worlds are deduplicated on keys built from {!OC.fingerprint} /
   {!CC.fingerprint} and the protocol-visible fields of each held copy,
   rather than on marshalled bytes: the cores' token allocators and
   hashtable layouts vary with history, and a timer fire that re-arms
   would otherwise never converge. *)

module OC = Zeus_ownership.Core
module OA = Zeus_ownership.Agent
module OM = Zeus_ownership.Messages
module ODir = Zeus_ownership.Directory
module CC = Zeus_commit.Core
module CA = Zeus_commit.Agent
module CM = Zeus_commit.Messages
open Zeus_store

(* ---------- shared: the network multiset --------------------------------- *)

type msg = { m_src : Types.node_id; m_dst : Types.node_id; payload : Zeus_net.Msg.payload }

(* Structural equality/compare work on payloads: extension constructors
   compare by their unique ids, the remaining fields are plain data. *)
let remove_one x xs =
  let rec go = function
    | [] -> []
    | y :: tl -> if y = x then tl else y :: go tl
  in
  go xs

(* FIFO view of the net: each directed link's oldest message.  Both
   harnesses keep [net] in per-link send order (sends tail-append), so
   filtering to first-per-link yields exactly the messages an ordered
   transport could deliver next. *)
let link_heads net =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun m ->
      let l = (m.m_src, m.m_dst) in
      if Hashtbl.mem seen l then false
      else begin
        Hashtbl.add seen l ();
        true
      end)
    net

let pp_sep_semi ppf () = Format.pp_print_string ppf ";"
let pp_nodes ppf ns =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:pp_sep_semi Format.pp_print_int)
    ns

let pp_req_id ppf (r : OM.request_id) = Format.fprintf ppf "n%d#%d" r.origin r.seq

let pp_snap ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some (d : OM.data_snapshot) -> Format.fprintf ppf "v%d" d.t_version

let pp_node_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some n -> Format.fprintf ppf "n%d" n

let pp_update ppf (u : Txn.update) =
  Format.fprintf ppf "(k%d v%d%s)" u.key u.version (if u.freed then " freed" else "")

let pp_updates = Format.pp_print_list ~pp_sep:pp_sep_semi pp_update

let pp_payload ppf = function
  | OM.O_req { req_id; key; kind; requester; requester_has_data; epoch } ->
    Format.fprintf ppf "REQ(%a k%d %a from n%d%s e%d)" pp_req_id req_id key
      OM.pp_kind kind requester
      (if requester_has_data then " has-data" else "")
      epoch
  | OM.O_inv
      { req_id; key; o_ts; base_ts; new_replicas; kind; requester; arbiters;
        data_from; recovery; driver; epoch } ->
    Format.fprintf ppf "INV(%a k%d %a base %a %a %a from n%d arb %a data %a%s drv n%d e%d)"
      pp_req_id req_id key Ots.pp o_ts Ots.pp base_ts Replicas.pp new_replicas
      OM.pp_kind kind requester pp_nodes arbiters pp_node_opt data_from
      (if recovery then " recovery" else "")
      driver epoch
  | OM.O_ack { req_id; key; o_ts; new_replicas; arbiters; sender; data; epoch } ->
    Format.fprintf ppf "ACK(%a k%d %a %a arb %a by n%d data %a e%d)" pp_req_id
      req_id key Ots.pp o_ts Replicas.pp new_replicas pp_nodes arbiters sender
      pp_snap data epoch
  | OM.O_val { key; o_ts; epoch } ->
    Format.fprintf ppf "VAL(k%d %a e%d)" key Ots.pp o_ts epoch
  | OM.O_nack { req_id; key; o_ts; reason; epoch } ->
    Format.fprintf ppf "NACK(%a k%d %s %a e%d)" pp_req_id req_id key
      (match o_ts with Some ts -> Format.asprintf "%a" Ots.pp ts | None -> "-")
      OM.pp_nack reason epoch
  | OM.O_resp { req_id; key; o_ts; new_replicas; arbiters; data; epoch } ->
    Format.fprintf ppf "RESP(%a k%d %a %a arb %a data %a e%d)" pp_req_id req_id
      key Ots.pp o_ts Replicas.pp new_replicas pp_nodes arbiters pp_snap data
      epoch
  | OM.O_recovery_done { node; epoch } ->
    Format.fprintf ppf "RECOVERY-DONE(n%d e%d)" node epoch
  | OM.O_register { key; replicas } ->
    Format.fprintf ppf "REGISTER(k%d %a)" key Replicas.pp replicas
  | OM.O_forget { key } -> Format.fprintf ppf "FORGET(k%d)" key
  | CM.R_inv { tx; epoch; followers; writes; prev_val; replay } ->
    Format.fprintf ppf "R-INV(%a e%d to %a [%a]%s%s)" CM.pp_tx tx epoch pp_nodes
      followers pp_updates writes
      (if prev_val then " prev-val" else "")
      (if replay then " replay" else "")
  | CM.R_ack { tx; sender } -> Format.fprintf ppf "R-ACK(%a by n%d)" CM.pp_tx tx sender
  | CM.R_val { tx; upto; epoch } ->
    Format.fprintf ppf "R-VAL(%a upto %d e%d)" CM.pp_tx tx upto epoch
  | _ -> Format.pp_print_string ppf "?"

let pp_msg ppf m = Format.fprintf ppf "n%d->n%d %a" m.m_src m.m_dst pp_payload m.payload

let pp_net ppf net =
  let lines = List.sort compare (List.map (Format.asprintf "  %a" pp_msg) net) in
  List.iter (fun l -> Format.fprintf ppf "%s@," l) lines

(* The net's part of a world key.  A reordering net is an order-free
   multiset, so it is keyed sorted; under FIFO links the per-link order is
   behaviour, and a stable sort by link keeps it.  [No_sharing] makes the
   bytes depend on the messages' values only, not on which of them happen
   to share physical payloads. *)
let net_key ~fifo net =
  let net =
    if fifo then
      List.stable_sort (fun a b -> compare (a.m_src, a.m_dst) (b.m_src, b.m_dst)) net
    else List.sort compare net
  in
  Marshal.to_string net [ Marshal.No_sharing ]

(* ---------- shared: copy-on-write nodes --------------------------------- *)

(* A world's nodes — each a core and its store table — copied on write: a
   successor shares its parent's nodes until it feeds one, and a shared
   node is never mutated again, so its core's fingerprint is computed
   once.  Most transitions feed one node, so this saves most of the
   copying, of the frontier's memory and of the key building. *)
module Cow (C : sig
  type t

  val copy : t -> t
  val fingerprint : t -> string
end) =
struct
  type t = {
    cs : C.t array;
    tables : Table.t array;
    owned : bool array;
    fps : string option array;
  }

  let create cs tables =
    let n = Array.length cs in
    { cs; tables; owned = Array.make n true; fps = Array.make n None }

  (* After a copy both sides share every node, so neither may write one in
     place. *)
  let copy t =
    let n = Array.length t.cs in
    Array.fill t.owned 0 n false;
    {
      cs = Array.copy t.cs;
      tables = Array.copy t.tables;
      owned = Array.make n false;
      fps = Array.copy t.fps;
    }

  let core t i = t.cs.(i)
  let table t i = t.tables.(i)

  (* Makes node [i] this world's own, to feed or write: its core's cached
     fingerprint is dropped. *)
  let mut t i =
    if not t.owned.(i) then begin
      t.cs.(i) <- C.copy t.cs.(i);
      t.tables.(i) <- Table.copy t.tables.(i);
      t.owned.(i) <- true
    end;
    t.fps.(i) <- None

  let fingerprint t i =
    match t.fps.(i) with
    | Some f -> f
    | None ->
      let f = C.fingerprint t.cs.(i) in
      t.fps.(i) <- Some f;
      f
end

(* ========================================================================== *)
(* Ownership                                                                  *)
(* ========================================================================== *)

module Ownership = struct
  module Nodes = Cow (struct
    type t = OC.state

    let copy = OC.copy
    let fingerprint = OC.fingerprint
  end)

  (* The scenario: nodes 0-2 are directory replicas, node 0 initially owns
     key 0 with readers {1, 2}, node 3 is a non-replica.  Acquire intents
     race through real drivers; one crash-stop failure triggers a view
     change and arb-replay. *)

  let nnodes = 4
  let key0 = 0
  let dirs = [ 0; 1; 2 ]
  let dir _ = dirs

  (* [fifo = false] (the default, and the only mode that ever existed
     here) treats the net as an arbitrarily reordered multiset: the
     ownership protocol has never assumed link order, and running the
     scenarios this way pins that.  [fifo = true] is the strict subset of
     behaviours an ordered transport exhibits. *)
  type config = {
    requesters : int list;
    crashable : int list;
    dup_budget : int;
    fifo : bool;
  }

  let default_config =
    { requesters = [ 1; 3 ]; crashable = [ 0; 1 ]; dup_budget = 0; fifo = false }

  (* Timeouts at zero: the model is untimed ([now] stays 0.0), so every
     "old enough to replay" check passes and the replay decision is purely
     the checker's. *)
  let model_config =
    { OC.request_timeout_us = 0.0; replay_after_us = 0.0 }

  type state = {
    nodes : Nodes.t;
    mutable net : msg list;
    mutable timers : (Types.node_id * int * OC.timer_kind) list;
    mutable waiting : (Types.node_id * int) list;
        (** issued requests whose continuation has not fired (node, seq) *)
    mutable to_issue : Types.node_id list;
    mutable crashed : Types.node_id option;
    mutable epoch : int;
    mutable epoch_pending : bool;
    mutable dups_left : int;
  }

  let fab_live w j = w.crashed <> Some j

  (* The membership view lags a crash until the epoch tick. *)
  let view_live w j = fab_live w j || w.epoch_pending

  let env w i =
    {
      OC.now = 0.0;
      epoch = w.epoch;
      live = Array.init nnodes (view_live w);
      self_alive = fab_live w i;
      trace_on = false;
    }

  (* Node [i]'s copy of the object, if it holds one. *)
  let held w i =
    let obj = Table.find (Nodes.table w.nodes i) key0 in
    if obj == Obj.dummy then None else Some obj

  (* Effect interpreter: the store effects run {!OA.apply_store} on the
     node's table, as in the agent; the net, timers and continuations are
     the model's. *)
  let exec_eff w i table eff =
    OA.apply_store table eff;
    match eff with
    | OC.Send { dst; payload; _ } ->
      (* Tail-append: the list stays in per-link send order, which the
         [fifo = true] delivery rule reads; an order-free multiset
         ([fifo = false]) does not care. *)
      w.net <- w.net @ [ { m_src = i; m_dst = dst; payload } ]
    | OC.Send_ack_local_data { dst; req_id; key; o_ts; new_replicas; arbiters; epoch } ->
      w.net <-
        w.net
        @ [
            {
              m_src = i;
              m_dst = dst;
              payload =
                OM.O_ack
                  { req_id; key; o_ts; new_replicas; arbiters; sender = i;
                    data = OA.snapshot table key; epoch };
            };
          ]
    | OC.Flush -> ()
    | OC.Set_timer { token; kind = OC.T_replay _ as kind; _ } ->
      w.timers <- (i, token, kind) :: w.timers
    | OC.Set_timer _ -> ()
        (* request timeouts and their cleanup never fire in the untimed
           model, exactly as in the specs *)
    | OC.Cancel_timer token ->
      w.timers <- List.filter (fun (n, tok, _) -> not (n = i && tok = token)) w.timers
    | OC.Unblock { seq; _ } ->
      w.waiting <- List.filter (fun (n, s) -> not (n = i && s = seq)) w.waiting
    | _ -> ()

  let feed w i input =
    Nodes.mut w.nodes i;
    let _, effs = OC.handle ~dir (Nodes.core w.nodes i) input in
    List.iter (exec_eff w i (Nodes.table w.nodes i)) effs

  (* A delivery consults the owner's busy flag only when the destination
     actually owns a valid copy — the only case the core reads [f_busy]. *)
  let busy_branches w (msg : msg) =
    let applicable =
      (match msg.payload with OM.O_req _ | OM.O_inv _ -> true | _ -> false)
      && fab_live w msg.m_dst
      && match held w msg.m_dst with Some obj -> Obj.is_owner obj | None -> false
    in
    if applicable then [ false; true ] else [ false ]

  (* [busy] is the branch point the checker injects in place of
     [Obj.busy]. *)
  let deliver w (msg : msg) ~busy =
    let i = msg.m_dst in
    if fab_live w i then
      feed w i
        (OC.Deliver
           { src = msg.m_src; payload = msg.payload;
             facts =
               OA.facts (Nodes.core w.nodes i) (Nodes.table w.nodes i) ~busy msg.payload;
             env = env w i })

  let issue w r =
    w.to_issue <- List.filter (fun x -> x <> r) w.to_issue;
    if fab_live w r then begin
      let seq = OC.next_seq (Nodes.core w.nodes r) in
      w.waiting <- (r, seq) :: w.waiting;
      feed w r
        (OC.Api_request
           { key = key0; kind = OM.Acquire;
             facts =
               { OC.no_facts with OC.f_exists = Table.mem (Nodes.table w.nodes r) key0 };
             env = env w r })
    end

  let crash w v =
    w.crashed <- Some v;
    w.epoch_pending <- true

  (* The membership service installs the new view everywhere, then the
     commit layer (empty in this world) drains instantly and announces
     recovery-done — un-gating the directories once every node's
     announcement arrives. *)
  let tick w =
    w.epoch <- w.epoch + 1;
    w.epoch_pending <- false;
    for i = 0 to nnodes - 1 do
      if fab_live w i then
        feed w i
          (OC.View_change
             { view_epoch = w.epoch; live = Array.init nnodes (view_live w);
               env = env w i })
    done;
    for i = 0 to nnodes - 1 do
      if fab_live w i then feed w i (OC.Api_recovery_done { epoch = w.epoch; env = env w i })
    done

  let fire w i token kind =
    w.timers <- List.filter (fun (n, tok, _) -> not (n = i && tok = token)) w.timers;
    let facts = OA.timer_facts (Nodes.core w.nodes i) (Nodes.table w.nodes i) kind in
    feed w i (OC.Timer_fire { token; kind; facts; env = env w i })

  (* Drop state that can no longer influence behaviour, keeping the world
     representation canonical: messages to / timers of the dead, replay
     timers whose pending arbitration moved on (the zombie timers the
     simulator lets fire harmlessly), and NACKs that are no-ops.
     [handle_nack] ignores a seq that is no longer outstanding, seqs never
     repeat, and deliveries from an older epoch are fenced off; so a NACK
     whose request already reached its verdict ((origin, seq) left
     [waiting]) or whose epoch is stale does nothing, and of two identical
     NACKs the second does nothing once the first is delivered.  Without
     the NACK rules the space is infinite: every replay re-sends INV to an
     owner the checker may call busy, and identical NACKs pile up. *)
  let normalize w =
    (match w.crashed with
    | Some v ->
      w.net <- List.filter (fun m -> m.m_dst <> v) w.net;
      w.timers <- List.filter (fun (n, _, _) -> n <> v) w.timers;
      w.waiting <- List.filter (fun (n, _) -> n <> v) w.waiting;
      w.to_issue <- List.filter (fun r -> r <> v) w.to_issue
    | None -> ());
    let kept = ref [] in
    w.net <-
      List.filter
        (fun m ->
          match m.payload with
          | OM.O_nack { req_id = { origin; seq }; epoch; _ } ->
            epoch = w.epoch
            && List.mem (origin, seq) w.waiting
            && (not (List.mem m !kept))
            && (kept := m :: !kept;
                true)
          | _ -> true)
        w.net;
    w.timers <-
      List.filter
        (fun (i, _, k) ->
          match k with
          | OC.T_replay { key; o_ts } -> (
            match OC.pending_ts (Nodes.core w.nodes i) key with
            | Some ts -> Ots.equal ts o_ts
            | None -> false)
          | _ -> false)
        w.timers

  (* Every field but [nodes] holds an immutable value. *)
  let copy w = { w with nodes = Nodes.copy w.nodes }

  let init_world config =
    let replicas = Replicas.v ~owner:0 ~readers:[ 1; 2 ] in
    let table i =
      let t = Table.create ~node:i in
      if Replicas.is_replica replicas i then begin
        let role = if Replicas.is_owner replicas i then Types.Owner else Types.Reader in
        let obj = Obj.create ~key:key0 ~role Value.empty in
        if role = Types.Owner then obj.Obj.o_replicas <- replicas;
        Table.install t obj
      end;
      t
    in
    let w =
      {
        nodes =
          Nodes.create
            (Array.init nnodes (fun i ->
                 OC.create ~config:model_config ~self:i ~nodes:nnodes ()))
            (Array.init nnodes table);
        net = [];
        timers = [];
        waiting = [];
        to_issue = config.requesters;
        crashed = None;
        epoch = 0;
        epoch_pending = false;
        dups_left = config.dup_budget;
      }
    in
    List.iter (fun d -> feed w d (OC.Api_seed { key = key0; replicas })) dirs;
    w

  (* An armed replay timer is meaningful to fire when the arbitration it
     watches is still pending and nothing about its timestamp is in
     flight — the executable reading of "blocked long enough". *)
  let mentions_ts w ts =
    List.exists
      (fun m ->
        match m.payload with
        | OM.O_inv { o_ts; _ } | OM.O_ack { o_ts; _ } | OM.O_val { o_ts; _ }
        | OM.O_resp { o_ts; _ } ->
          Ots.equal o_ts ts
        | OM.O_nack { o_ts = Some ts'; _ } -> Ots.equal ts' ts
        | _ -> false)
      w.net

  let replay_fires w =
    if w.epoch_pending then []
    else
      List.filter
        (fun (i, _, k) ->
          match k with
          | OC.T_replay { o_ts; _ } -> fab_live w i && not (mentions_ts w o_ts)
          | _ -> false)
        w.timers

  (* At most one fire per (node, kind): duplicates left by view-change
     re-arming are interchangeable. *)
  let dedup_fires fires =
    List.fold_left
      (fun acc ((i, _, k) as f) ->
        if List.exists (fun (j, _, k') -> i = j && k = k') acc then acc
        else acc @ [ f ])
      [] fires

  let transitions config w =
    let succs = ref [] in
    let push f =
      let w' = copy w in
      f w';
      normalize w';
      succs := w' :: !succs
    in
    let deliverable =
      if config.fifo then link_heads w.net else List.sort_uniq compare w.net
    in
    List.iter
      (fun msg ->
        List.iter
          (fun busy ->
            push (fun w' ->
                w'.net <- remove_one msg w'.net;
                deliver w' msg ~busy);
            if w.dups_left > 0 then
              if config.fifo then
                (* An in-order duplicate: the frame is delivered twice
                   back-to-back, never leapfrogged by later traffic. *)
                push (fun w' ->
                    w'.dups_left <- w'.dups_left - 1;
                    w'.net <- remove_one msg w'.net;
                    deliver w' msg ~busy;
                    deliver w' msg ~busy)
              else
                push (fun w' ->
                    w'.dups_left <- w'.dups_left - 1;
                    deliver w' msg ~busy))
          (busy_branches w msg))
      deliverable;
    List.iter (fun r -> push (fun w' -> issue w' r)) w.to_issue;
    if w.crashed = None then
      List.iter (fun v -> push (fun w' -> crash w' v)) config.crashable;
    if w.epoch_pending then push tick;
    List.iter (fun (i, token, kind) -> push (fun w' -> fire w' i token kind))
      (dedup_fires (replay_fires w));
    !succs

  (* ---------- invariants -------------------------------------------------- *)

  let all_nodes = List.init nnodes Fun.id

  let owners w =
    List.filter
      (fun i ->
        fab_live w i
        &&
        match held w i with
        | Some obj -> Obj.is_owner obj && obj.Obj.o_state = Types.O_valid
        | None -> false)
      all_nodes

  (* Live directory replicas whose entry is in the applied (valid) state. *)
  let valid_entries w =
    List.filter_map
      (fun d ->
        if fab_live w d then
          let e = ODir.find (OC.directory (Nodes.core w.nodes d)) key0 in
          if e != ODir.dummy && e.ODir.pending = None && e.ODir.o_state = Types.O_valid then
            Some (d, e)
          else None
        else None)
      dirs

  let canon_reps w (r : Replicas.t) =
    let r = Replicas.drop_dead r ~live:(fab_live w) in
    { r with Replicas.readers = List.sort compare r.Replicas.readers }

  let invariant w =
    match owners w with
    | _ :: _ :: _ as os ->
      Error (Format.asprintf "two live valid owners: %a" pp_nodes os)
    | _ ->
      let rec agree = function
        | [] -> Ok ()
        | (d1, (e1 : ODir.entry)) :: rest -> (
          match
            List.find_opt
              (fun (_, (e2 : ODir.entry)) ->
                Ots.equal e1.ODir.o_ts e2.ODir.o_ts
                && canon_reps w e1.ODir.replicas <> canon_reps w e2.ODir.replicas)
              rest
          with
          | Some (d2, e2) ->
            Error
              (Format.asprintf
                 "dirs n%d/n%d disagree at %a: %a vs %a (modulo dead)" d1 d2
                 Ots.pp e1.ODir.o_ts Replicas.pp e1.ODir.replicas Replicas.pp
                 e2.ODir.replicas)
          | None -> agree rest)
      in
      agree (valid_entries w)

  let at_quiescence w =
    let live_nodes = List.filter (fab_live w) all_nodes in
    match
      List.find_opt (fun i -> OC.pending_ts (Nodes.core w.nodes i) key0 <> None) live_nodes
    with
    | Some i -> Error (Format.asprintf "n%d: pending arbitration never resolved" i)
    | None -> (
      match w.waiting with
      | (n, seq) :: _ ->
        Error (Format.asprintf "n%d: request #%d never reached a verdict" n seq)
      | [] -> (
        let entries = valid_entries w in
        match owners w with
        | [] ->
          if w.crashed = None then Error "no live owner without a crash"
          else begin
            (* permanently orphaned is allowed only if every freshest
               surviving directory names the dead node (or nobody) *)
            let max_ts =
              List.fold_left
                (fun acc (_, (e : ODir.entry)) ->
                  if Ots.compare e.ODir.o_ts acc > 0 then e.ODir.o_ts else acc)
                Ots.zero entries
            in
            match
              List.find_opt
                (fun (_, (e : ODir.entry)) ->
                  Ots.equal e.ODir.o_ts max_ts
                  &&
                  match e.ODir.replicas.Replicas.owner with
                  | Some o -> fab_live w o
                  | None -> false)
                entries
            with
            | Some (d, e) ->
              Error
                (Format.asprintf
                   "no live valid owner, yet dir n%d's freshest entry names live n%d"
                   d
                   (Option.get e.ODir.replicas.Replicas.owner))
            | None -> Ok ()
          end
        | [ o ] -> (
          let owner_ts = (Option.get (held w o)).Obj.o_ts in
          match
            List.find_opt
              (fun (_, (e : ODir.entry)) ->
                if Ots.equal e.ODir.o_ts owner_ts then
                  e.ODir.replicas.Replicas.owner <> Some o
                else Ots.compare e.ODir.o_ts owner_ts > 0)
              entries
          with
          | Some (d, e) ->
            Error
              (Format.asprintf "dir n%d at %a contradicts owner n%d at %a" d
                 Ots.pp e.ODir.o_ts o Ots.pp owner_ts)
          | None -> Ok ())
        | os -> Error (Format.asprintf "two live valid owners: %a" pp_nodes os)))

  (* ---------- canonical key / display ------------------------------------- *)

  let pp_timer ppf = function
    | OC.T_replay { key; o_ts } -> Format.fprintf ppf "replay(k%d %a)" key Ots.pp o_ts
    | OC.T_timeout { seq; key; _ } -> Format.fprintf ppf "timeout(#%d k%d)" seq key
    | OC.T_cleanup { seq; _ } -> Format.fprintf ppf "cleanup(#%d)" seq

  (* The projection of a held copy that the protocol reads. *)
  let pp_copy ppf = function
    | Some (obj : Obj.t) ->
      Format.fprintf ppf "%a %a %a v%d" Types.pp_role obj.role Types.pp_o_state
        obj.o_state Ots.pp obj.o_ts obj.t_version
    | None -> Format.pp_print_string ppf "-"

  let fingerprint config w =
    let b = Buffer.create 1024 in
    let add fmt = Format.kasprintf (Buffer.add_string b) fmt in
    add "e%d%s crash=%s dup=%d issue=%a;"
      w.epoch
      (if w.epoch_pending then "+p" else "")
      (match w.crashed with Some v -> "n" ^ string_of_int v | None -> "-")
      w.dups_left pp_nodes (List.sort compare w.to_issue);
    for i = 0 to nnodes - 1 do
      if fab_live w i then
        add "n%d[%a | %s];" i pp_copy (held w i) (Nodes.fingerprint w.nodes i)
      else add "n%d[dead];" i
    done;
    add "net{%s};" (net_key ~fifo:config.fifo w.net);
    let timers =
      List.sort_uniq compare
        (List.map (fun (i, _, k) -> Format.asprintf "n%d:%a" i pp_timer k) w.timers)
    in
    add "timers{%s};" (String.concat " " timers);
    let waiting =
      List.sort compare (List.map (fun (n, s) -> Printf.sprintf "n%d#%d" n s) w.waiting)
    in
    add "waiting{%s}" (String.concat " " waiting);
    Buffer.contents b

  let pp_state ppf w =
    Format.fprintf ppf "@[<v>epoch %d%s  crashed %s  dups %d  to-issue %a@,"
      w.epoch
      (if w.epoch_pending then " (tick pending)" else "")
      (match w.crashed with Some v -> "n" ^ string_of_int v | None -> "-")
      w.dups_left pp_nodes w.to_issue;
    for i = 0 to nnodes - 1 do
      if fab_live w i then
        Format.fprintf ppf "n%d: %a  dir %s@," i pp_copy (held w i)
          (let e = ODir.find (OC.directory (Nodes.core w.nodes i)) key0 in
           if e == ODir.dummy then "-"
           else
             Format.asprintf "%a %a %a%s" Types.pp_o_state e.ODir.o_state Ots.pp
               e.ODir.o_ts Replicas.pp e.ODir.replicas
               (match e.ODir.pending with
               | Some p -> Format.asprintf " pending %a" Ots.pp p.ODir.o_ts
               | None -> ""))
      else Format.fprintf ppf "n%d: dead@," i
    done;
    List.iter
      (fun (i, _, k) -> Format.fprintf ppf "timer n%d %a@," i pp_timer k)
      w.timers;
    List.iter (fun (n, s) -> Format.fprintf ppf "waiting n%d#%d@," n s) w.waiting;
    pp_net ppf w.net;
    Format.fprintf ppf "@]"

  let explore ?(config = default_config) ?max_states () =
    Explorer.bfs
      ~init:[ init_world config ]
      ~next:(transitions config) ~key:(fingerprint config) ~invariant
      ~at_quiescence ?max_states ()

  (* ---------- scripting (tests) ------------------------------------------- *)

  let post w m = w.net <- w.net @ [ m ]

  let take w m =
    w.net <- remove_one m w.net;
    deliver w m ~busy:false

  let key = fingerprint
  let net w = w.net
  let epoch w = w.epoch
  let core w i = Nodes.core w.nodes i
  let table w i = Nodes.table w.nodes i
end

(* ========================================================================== *)
(* Commit                                                                     *)
(* ========================================================================== *)

module Commit = struct
  module Nodes = Cow (struct
    type t = CC.state

    let copy = CC.copy
    let fingerprint = CC.fingerprint
  end)

  (* The scenario: coordinator node 0 pipelines a fixed transaction
     schedule over object X (on followers 1 and 2) and object Y (on
     follower 1 only — a partial stream), with optional duplication and a
     coordinator crash followed by follower replay. *)

  let coord = 0
  let nnodes = 3
  let obj_x = 0
  let obj_y = 1
  let objs = [ obj_x; obj_y ]
  let replicas_of k = if k = obj_x then [ 0; 1; 2 ] else [ 0; 1 ]

  type txn = [ `X | `XY | `Y ]

  type config = {
    txns : txn list;
    crash : bool;
    dup_budget : int;
    fifo : bool;
    clear_marks : CC.clear_marks;
  }

  let default_config =
    {
      txns = [ `Y; `XY; `X ];
      crash = true;
      dup_budget = 0;
      fifo = true;
      clear_marks = CC.Sequenced;
    }

  type state = {
    nodes : Nodes.t;
    mutable net : msg list;
    mutable issued : int;
    mutable crashed : bool;
    mutable epoch : int;
    mutable epoch_pending : bool;
    mutable dups_left : int;
    mutable skipped : string option;
        (** a non-replay apply that raised a held object by more than one
            version — a slot applied out of pipeline order *)
  }

  let fab_live w j = not (w.crashed && j = coord)
  let view_live w j = fab_live w j || w.epoch_pending

  let env w _i =
    { CC.epoch = w.epoch; live = Array.init nnodes (view_live w); trace_on = false }

  (* Effect interpreter: the store effects run {!CA.apply_store} on the
     node's table, as in the agent; the net is the model's.  Before an
     install, it records whether the apply raises a held object by more
     than one version: a slot applied out of pipeline order. *)
  let exec_eff w i table eff =
    (match eff with
    | CC.Apply_writes { install = true; writes } when w.skipped = None ->
      w.skipped <-
        List.find_map
          (fun (u : Txn.update) ->
            let obj = Table.find table u.key in
            if obj != Obj.dummy && u.version > obj.Obj.t_version + 1 then
              Some
                (Format.asprintf
                   "n%d applied object %d v%d over v%d (out of pipeline order)" i u.key
                   u.version obj.Obj.t_version)
            else None)
          writes
    | _ -> ());
    CA.apply_store table ~on_freed:ignore eff;
    match eff with
    | CC.Send { dst; payload; _ } ->
      (* Appended at the tail so the list order is the per-link send order —
         the FIFO delivery rule below depends on it. *)
      w.net <- w.net @ [ { m_src = i; m_dst = dst; payload } ]
    | _ -> ()

  let feed w i input =
    Nodes.mut w.nodes i;
    let _, effs = CC.handle (Nodes.core w.nodes i) input in
    List.iter (exec_eff w i (Nodes.table w.nodes i)) effs

  let objs_of = function `X -> [ obj_x ] | `Y -> [ obj_y ] | `XY -> [ obj_x; obj_y ]

  (* A local commit: bump the coordinator's copies, mark them written and
     guard them for the replication in flight (what [Txn.local_commit]
     does), then hand the updates to the real core. *)
  let do_commit w txn =
    w.issued <- w.issued + 1;
    Nodes.mut w.nodes coord;
    let table = Nodes.table w.nodes coord in
    let updates =
      List.map
        (fun k ->
          let obj = Table.get table k in
          obj.Obj.t_version <- obj.Obj.t_version + 1;
          obj.Obj.t_state <- Types.T_write;
          obj.Obj.pending_rc <- obj.Obj.pending_rc + 1;
          { Txn.key = k; version = obj.Obj.t_version; data = Value.empty; freed = false })
        (objs_of txn)
    in
    let replica_sets = List.map (fun (u : Txn.update) -> replicas_of u.Txn.key) updates in
    feed w coord
      (CC.Api_commit
         { thread = 0; updates; replica_sets; has_durable = false; env = env w coord })

  let deliver w (msg : msg) =
    if fab_live w msg.m_dst then
      feed w msg.m_dst
        (CC.Deliver { src = msg.m_src; payload = msg.payload; env = env w msg.m_dst })

  let crash w =
    w.crashed <- true;
    w.epoch_pending <- true;
    w.net <- List.filter (fun m -> m.m_dst <> coord) w.net

  let tick w =
    w.epoch <- w.epoch + 1;
    w.epoch_pending <- false;
    for i = 0 to nnodes - 1 do
      if fab_live w i then
        feed w i
          (CC.View_change
             { view_epoch = w.epoch; live = Array.init nnodes (view_live w);
               env = env w i })
    done

  let copy w = { w with nodes = Nodes.copy w.nodes }

  let init_world config =
    let table i =
      let t = Table.create ~node:i in
      List.iter
        (fun k ->
          if List.mem i (replicas_of k) then
            let role = if i = coord then Types.Owner else Types.Reader in
            Table.install t (Obj.create ~key:k ~role Value.empty))
        objs;
      t
    in
    {
      nodes =
        Nodes.create
          (Array.init nnodes (fun i ->
               CC.create ~clear_marks:config.clear_marks ~self:i ~nodes:nnodes ()))
          (Array.init nnodes table);
      net = [];
      issued = 0;
      crashed = false;
      epoch = 0;
      epoch_pending = false;
      dups_left = config.dup_budget;
      skipped = None;
    }

  (* With [fifo = true] only each link's oldest message is deliverable —
     the deployed ordered transport (batched reliable messaging, the
     paper's RDMA RC).  With [fifo = false] the net is an arbitrarily
     reordered multiset — [Transport.unordered] or a multipath fabric.
     Since the sequence-aware clear marks ([CC.Sequenced], the default)
     the protocol passes under both; [clear_marks = CC.Legacy] +
     [fifo = false] reproduces the historical VAL-overtakes-first-INV
     buffering deadlock, kept as [zeus_cli model]'s negative control. *)
  let transitions config w =
    let succs = ref [] in
    let push f =
      let w' = copy w in
      f w';
      succs := w' :: !succs
    in
    let deliverable =
      if config.fifo then link_heads w.net else List.sort_uniq compare w.net
    in
    List.iter
      (fun msg ->
        push (fun w' ->
            w'.net <- remove_one msg w'.net;
            deliver w' msg);
        if w.dups_left > 0 then
          if config.fifo then
            (* An in-order duplicate: the frame is delivered twice
               back-to-back (a retransmitted window overlapping delivery
               with receive-side dedup off). *)
            push (fun w' ->
                w'.dups_left <- w'.dups_left - 1;
                w'.net <- remove_one msg w'.net;
                deliver w' msg;
                deliver w' msg)
          else
            push (fun w' ->
                w'.dups_left <- w'.dups_left - 1;
                deliver w' msg))
      deliverable;
    (if not w.crashed then
       match List.nth_opt config.txns w.issued with
       | Some txn -> push (fun w' -> do_commit w' txn)
       | None -> ());
    if config.crash && not w.crashed && w.issued > 0 then push crash;
    if w.epoch_pending then push tick;
    !succs

  (* ---------- invariants -------------------------------------------------- *)

  let all_nodes = List.init nnodes Fun.id

  (* Node [i]'s copy of object [k], if it holds one: its version and
     whether it is valid. *)
  let held w i k =
    let obj = Table.find (Nodes.table w.nodes i) k in
    if obj == Obj.dummy then None else Some (obj.Obj.t_version, obj.Obj.t_state = Types.T_valid)

  let version w i k = fst (Option.get (held w i k))

  let to_result = function Some msg -> Error msg | None -> Ok ()

  (* Followers apply a pipeline's slots in order, so outside replay no
     apply skips a version of an object it holds; then valid copies of an
     object agree on its version. *)
  let invariant w =
    let disagreement k =
      let valids =
        List.filter_map
          (fun i ->
            match held w i k with
            | Some (v, true) when fab_live w i -> Some (i, v)
            | Some _ | None -> None)
          all_nodes
      in
      match valids with
      | (i1, v1) :: rest ->
        Option.map
          (fun (i2, v2) ->
            Format.asprintf "object %d: valid copies disagree (n%d@v%d vs n%d@v%d)" k i1
              v1 i2 v2)
          (List.find_opt (fun (_, v) -> v <> v1) rest)
      | [] -> None
    in
    to_result (if w.skipped <> None then w.skipped else List.find_map disagreement objs)

  let at_quiescence config w =
    let live_nodes = List.filter (fab_live w) all_nodes in
    let followers = List.filter (fun i -> i <> coord) live_nodes in
    let core i = Nodes.core w.nodes i in
    let each nodes check = List.find_map (fun i -> List.find_map (check i) objs) nodes in
    match List.find_opt (fun i -> CC.buffered_invs (core i) > 0) followers with
    | Some i ->
      (* The reordering deadlock's signature: an R-INV waiting forever for
         a predecessor slot that already cleared. *)
      Error (Format.asprintf "n%d still holds buffered R-INVs" i)
    | None -> (
    match List.find_opt (fun i -> CC.stored_invs (core i) > 0) followers with
    | Some i -> Error (Format.asprintf "n%d still holds stored R-INVs" i)
    | None -> (
      match List.find_opt (fun i -> CC.replaying_count (core i) > 0) live_nodes with
      | Some i -> Error (Format.asprintf "n%d's replay never finished" i)
      | None -> (
        match List.find_opt (fun i -> CC.recovering_epoch (core i) <> None) live_nodes with
        | Some i -> Error (Format.asprintf "n%d's recovery drain never completed" i)
        | None ->
          if not w.crashed then begin
            if w.issued < List.length config.txns then
              Error "schedule never fully issued"
            else if CC.inflight (core coord) > 0 then
              Error "coordinator slots never validated"
            else
              to_result
                (each live_nodes (fun i k ->
                     match held w i k with
                     | Some (v, valid) when (not valid) || v <> version w coord k ->
                       Some
                         (Format.asprintf
                            "n%d's object %d did not converge to the coordinator (v%d, \
                             coordinator v%d, valid %b)"
                            i k v (version w coord k) valid)
                     | Some _ | None -> None))
          end
          else begin
            (* survivors must agree on X and hold fully validated copies
               of everything they hold *)
            let x1 = version w 1 obj_x and x2 = version w 2 obj_x in
            if x1 <> x2 then
              Error (Format.asprintf "survivors diverge on X: n1@v%d vs n2@v%d" x1 x2)
            else
              to_result
                (each followers (fun i k ->
                     match held w i k with
                     | Some (_, false) ->
                       Some (Format.asprintf "n%d's object %d never revalidated" i k)
                     | Some _ | None -> None))
          end)))

  (* ---------- canonical key / display ------------------------------------- *)

  (* The projection of each held copy that the protocol reads. *)
  let pp_store ppf (w, i) =
    List.iter
      (fun k ->
        match held w i k with
        | Some (v, valid) ->
          Format.fprintf ppf "%s:v%d%s "
            (if k = obj_x then "X" else "Y")
            v
            (if valid then "" else "*")
        | None -> ())
      objs

  let fingerprint config w =
    let b = Buffer.create 1024 in
    let add fmt = Format.kasprintf (Buffer.add_string b) fmt in
    add "e%d%s crash=%b dup=%d issued=%d%s;"
      w.epoch
      (if w.epoch_pending then "+p" else "")
      w.crashed w.dups_left w.issued
      (if w.skipped <> None then " skipped" else "");
    for i = 0 to nnodes - 1 do
      if fab_live w i then
        add "n%d[%a| %s];" i pp_store (w, i) (Nodes.fingerprint w.nodes i)
      else add "n%d[dead];" i
    done;
    add "net{%s}" (net_key ~fifo:config.fifo w.net);
    Buffer.contents b

  let pp_state ppf w =
    Format.fprintf ppf "@[<v>epoch %d%s  crashed %b  dups %d  issued %d@,"
      w.epoch
      (if w.epoch_pending then " (tick pending)" else "")
      w.crashed w.dups_left w.issued;
    Option.iter (Format.fprintf ppf "%s@,") w.skipped;
    for i = 0 to nnodes - 1 do
      if fab_live w i then begin
        let c = Nodes.core w.nodes i in
        Format.fprintf ppf "n%d: %a inflight %d stored %d replaying %d@," i pp_store (w, i)
          (CC.inflight c) (CC.stored_invs c) (CC.replaying_count c)
      end
      else Format.fprintf ppf "n%d: dead@," i
    done;
    pp_net ppf w.net;
    Format.fprintf ppf "@]"

  let explore ?(config = default_config) ?max_states () =
    Explorer.bfs
      ~init:[ init_world config ]
      ~next:(transitions config) ~key:(fingerprint config) ~invariant
      ~at_quiescence:(at_quiescence config) ?max_states ()
end

(* ========================================================================== *)
(* Scenarios                                                                  *)
(* ========================================================================== *)

type expect = Exhaustive | Bounded | Counterexample of string

type scenario = {
  name : string;
  cap : int;
  expect : expect;
  explore : max_states:int -> (Format.formatter -> unit) Explorer.stats;
}

(* Erase a run's state type: states become their printers. *)
let printable pp (stats : _ Explorer.stats) =
  {
    stats with
    Explorer.violation =
      Option.map (fun (s, msg) -> ((fun ppf -> pp ppf s), msg)) stats.Explorer.violation;
    trace = List.map (fun s ppf -> pp ppf s) stats.Explorer.trace;
  }

(* An exploration's live set (visited digests, frontier) only grows.  The
   simulator drivers' [space_overhead = 400] lets the major heap reach
   several times it — 1.5 GB for the largest row, against 0.6 GB at the
   OCaml default of 120 — so rows run at the default. *)
let with_default_gc f =
  let gc = Gc.get () in
  Gc.set { gc with Gc.space_overhead = 120 };
  Fun.protect ~finally:(fun () -> Gc.set gc) f

let ownership name cap expect config =
  let explore ~max_states =
    with_default_gc (fun () ->
        printable Ownership.pp_state (Ownership.explore ~config ~max_states ()))
  in
  { name = "ownership core: " ^ name; cap; expect; explore }

let commit name cap expect config =
  let explore ~max_states =
    with_default_gc (fun () ->
        printable Commit.pp_state (Commit.explore ~config ~max_states ()))
  in
  { name = "commit core: " ^ name; cap; expect; explore }

let scenarios =
  let o = Ownership.default_config and c = Commit.default_config in
  [
    ownership "contention, no faults" 20_000 Exhaustive
      { o with crashable = []; dup_budget = 0 };
    ownership "contention + duplication" 300_000 Exhaustive
      { o with crashable = []; dup_budget = 1 };
    ownership "owner/driver crash, 1 requester" 40_000 Exhaustive
      { o with requesters = [ 3 ] };
    ownership "contention + crash" 600_000 Exhaustive o;
    (* The rows above run with [fifo = false]: the ownership protocol never
       leans on link order.  FIFO links are the strict-subset sanity check
       (the ordered transport). *)
    ownership "contention + crash, FIFO links" 200_000 Exhaustive
      { o with fifo = true };
    commit "pipelined, partial streams, no faults" 2_000 Exhaustive
      { c with crash = false };
    commit "longer pipeline" 4_000 Exhaustive
      { c with txns = [ `Y; `XY; `X; `XY ]; crash = false };
    commit "with duplication" 4_000 Exhaustive { c with crash = false; dup_budget = 1 };
    commit "coordinator crash + replay" 40_000 Exhaustive c;
    (* With the sequence-aware clear marks (the default) the protocol stays
       safe and live on links that permute delivery. *)
    commit "reordered links" 2_000 Exhaustive { c with crash = false; fifo = false };
    commit "reordered links + crash/replay" 200_000 Bounded { c with fifo = false };
    (* Negative control: the historical arrival-order clearing has the
       liveness hole under reordering (an R-VAL overtaking a pipe's first
       R-INV leaves that INV buffered forever).  Losing this counterexample
       would mean the harness lost its nondeterminism. *)
    commit "reordered links, legacy clear marks" 20_000
      (Counterexample "buffered R-INVs")
      { c with crash = false; fifo = false; clear_marks = CC.Legacy };
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let verdict sc ~max_states (stats : _ Explorer.stats) =
  match (sc.expect, stats.Explorer.violation) with
  | (Exhaustive | Bounded), Some (_, msg) -> Error ("violation: " ^ msg)
  | Exhaustive, None when max_states >= sc.cap && not stats.Explorer.exhausted ->
    Error (Printf.sprintf "did not close within its cap of %d states" sc.cap)
  | (Exhaustive | Bounded), None -> Ok ()
  | Counterexample sub, Some (_, msg) ->
    if contains ~sub msg then Ok () else Error ("unexpected violation: " ^ msg)
  | Counterexample sub, None ->
    Error (Printf.sprintf "expected counterexample (%s) not found" sub)
