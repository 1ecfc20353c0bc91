(* Sans-I/O core of the reliable commit protocol (§5).

   Same architecture as {!Zeus_ownership.Core}: [handle st input] mutates
   the pipeline/follower state in place and returns the ordered effect
   list its runtime must execute.  Store access is inverted two ways:
   reads arrive pre-sampled in the input (the per-update replica sets of
   an {!Api_commit}), writes leave as the three coarse store transforms
   the old agent performed inline ({!Validate_local}, {!Apply_writes},
   {!Validate_stored}) — {!Agent.apply_store} runs them against a real
   {!Zeus_store.Table}, in the simulator and in the model harness. *)

open Zeus_store
open Messages

type env = { epoch : int; live : bool array; trace_on : bool }

type counter = C_started | C_durable | C_replays

type telemetry =
  | Count of counter
  | Span_start of
      { token : int; thread : int; slot : int; followers : int; writes : int }
  | Span_finish of int
      (** replication span closed; the token is dead afterwards *)

type eff =
  | Send of { dst : Types.node_id; size : int; payload : Zeus_net.Msg.payload }
  | Flush
  | Validate_local of { writes : Txn.update list }
      (** coordinator durable: per update, [pending_rc - 1]; on version
          match, freed objects are removed (firing the runtime's
          [on_freed]) and unchanged ones revalidate *)
  | Apply_writes of { install : bool; writes : Txn.update list }
      (** follower applies an R-INV version-monotonically; [install] for
          unknown objects only outside replay *)
  | Validate_stored of { writes : Txn.update list }
      (** follower R-VAL: version-equal objects revalidate or complete
          their free *)
  | Durable of { tx : tx_id }
      (** the [on_durable] continuation registered for this slot fires *)
  | Drained of { epoch : int }
      (** all dead coordinators' stored R-INVs drained ([recovery_drained]) *)
  | Telemetry of telemetry

type input =
  | Deliver of { src : Types.node_id; payload : Zeus_net.Msg.payload; env : env }
  | Api_commit of {
      thread : int;
      updates : Txn.update list;
      replica_sets : Types.node_id list list;
          (** per update, in order: [Replicas.all] of the object's
              owner-held [o_replicas] ([[]] when absent) *)
      has_durable : bool;
      env : env;
    }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

(* ---------- state -------------------------------------------------------- *)

(* Every per-pipeline table is slot-indexed ({!Window}) and every per-thread
   or per-coordinator table is an array, so a steady-state input does no
   hashing and no polymorphic comparison; absent entries are the constant
   sentinels below, tested with [==], so lookups allocate no [Some]. *)

type clear_marks = Legacy | Sequenced

type slot_state = {
  s_tx : tx_id;
  s_writes : Txn.update list;
  s_followers : Types.node_id list;
  mutable s_missing : Types.node_id list;
  mutable s_extra_vals : Types.node_id list;
  s_has_durable : bool;
  s_span : int;  (* span token, -1 when tracing was off *)
}

type pipeline = {
  p_id : pipe_id;  (* shared by the [tx] of every slot *)
  mutable next_slot : int;
  mutable done_upto : int;
      (* contiguous commit watermark: every slot <= done_upto has validated
         locally (it was removed from [slots], or never entered them — the
         no-follower fast path); this is the [upto] clear mark R-VALs carry *)
  slots : slot_state Window.t;
}

(* [i_tx] and [b_tx] are the R-INV's own [tx], reused by its R-ACK. *)
type stored_inv = {
  i_tx : tx_id;
  i_followers : Types.node_id list;
  i_writes : Txn.update list;
}

type buffered_inv = {
  b_tx : tx_id;
  b_followers : Types.node_id list;
  b_writes : Txn.update list;
  b_src : Types.node_id;
}

type follower_pipe = {
  mutable cleared_upto : int;
  marks : bool Window.t;
      (* Sequenced mode only: slots above [cleared_upto] known handled
         (stored or cleared by a VAL) while earlier slots are still open at
         the coordinator; compacted into [cleared_upto] as gaps close *)
  stored : stored_inv Window.t;
  buffered : buffered_inv Window.t;
}

module Tx_map = Map.Make (struct
  type t = tx_id

  let compare (a : tx_id) (b : tx_id) =
    if a.pipe.node <> b.pipe.node then Int.compare a.pipe.node b.pipe.node
    else if a.pipe.thread <> b.pipe.thread then Int.compare a.pipe.thread b.pipe.thread
    else Int.compare a.slot b.slot
end)

type state = {
  self : Types.node_id;
  mode : clear_marks;
  mutable pipelines : pipeline option array;  (* by thread *)
  follower_pipes : follower_pipe option array array;  (* by coordinator, then thread *)
  mutable replaying : slot_state Tx_map.t;  (* crash path only *)
  mutable prev_live : bool array;
  mutable recovering_epoch : int option;
  mutable token_seq : int;
  mutable env : env;  (* of the input being handled *)
  mutable out : eff array;  (* its effects so far: the first [n_out] *)
  mutable n_out : int;
}

let no_tx = { pipe = { node = -1; thread = -1 }; slot = -1 }

let no_slot =
  {
    s_tx = no_tx;
    s_writes = [];
    s_followers = [];
    s_missing = [];
    s_extra_vals = [];
    s_has_durable = false;
    s_span = -1;
  }

let no_inv = { i_tx = no_tx; i_followers = []; i_writes = [] }
let no_buffered = { b_tx = no_tx; b_followers = []; b_writes = []; b_src = -1 }
let no_env = { epoch = 0; live = [||]; trace_on = false }
let out_capacity = 16

let create ?(clear_marks = Sequenced) ~self ~nodes () =
  {
    self;
    mode = clear_marks;
    pipelines = Array.make 8 None;
    follower_pipes = Array.make nodes [||];
    replaying = Tx_map.empty;
    prev_live = Array.make nodes true;
    recovering_epoch = None;
    token_seq = 0;
    env = no_env;
    out = Array.make out_capacity Flush;
    n_out = 0;
  }

let fold_follower_pipes f st acc =
  Array.fold_left
    (Array.fold_left (fun acc -> function Some fp -> f fp acc | None -> acc))
    acc st.follower_pipes

let inflight st =
  Array.fold_left
    (fun acc -> function Some p -> acc + Window.length p.slots | None -> acc)
    0 st.pipelines

let stored_invs st = fold_follower_pipes (fun fp acc -> acc + Window.length fp.stored) st 0
let buffered_invs st = fold_follower_pipes (fun fp acc -> acc + Window.length fp.buffered) st 0
let replaying_count st = Tx_map.cardinal st.replaying
let recovering_epoch st = st.recovering_epoch

let find_pipe st thread =
  if thread < Array.length st.pipelines then st.pipelines.(thread) else None

let peek_slot st ~thread =
  match find_pipe st thread with Some p -> p.next_slot | None -> 0

let handles_payload = function R_inv _ | R_ack _ | R_val _ -> true | _ -> false

let writes_size writes =
  List.fold_left (fun acc (u : Txn.update) -> acc + Value.size u.data + 16) 64 writes

(* Effects go to a buffer kept in the state and leave as one list built
   back to front, so an input allocates one cons per effect; the buffer is
   cleared behind, leaving no effect reachable from the long-lived state. *)
let emit st e =
  if st.n_out = Array.length st.out then begin
    let out = Array.make (2 * st.n_out) Flush in
    Array.blit st.out 0 out 0 st.n_out;
    st.out <- out
  end;
  st.out.(st.n_out) <- e;
  st.n_out <- st.n_out + 1

let take_effects st =
  let rec build i acc =
    if i < 0 then acc
    else begin
      let e = st.out.(i) in
      st.out.(i) <- Flush;
      build (i - 1) (e :: acc)
    end
  in
  let effs = build (st.n_out - 1) [] in
  st.n_out <- 0;
  effs

let live st n = st.env.live.(n)

let fresh_token st =
  let tok = st.token_seq in
  st.token_seq <- tok + 1;
  tok

(* Node lists are short; these walk them without closures or polymorphic
   comparison, and return their argument itself when nothing is dropped. *)
let rec mem_node (n : Types.node_id) = function
  | [] -> false
  | m :: rest -> m = n || mem_node n rest

let rec remove_node (n : Types.node_id) = function
  | [] -> []
  | m :: rest as l ->
    if m = n then remove_node n rest
    else
      let rest' = remove_node n rest in
      if rest' == rest then l else m :: rest'

let rec all_live live = function [] -> true | f :: rest -> live.(f) && all_live live rest

let live_only live nodes =
  if all_live live nodes then nodes else List.filter (fun f -> live.(f)) nodes

(* ---------- coordinator -------------------------------------------------- *)

let get_pipe st thread =
  match find_pipe st thread with
  | Some p -> p
  | None ->
    let len = Array.length st.pipelines in
    if thread >= len then begin
      let a = Array.make (max (thread + 1) (2 * len)) None in
      Array.blit st.pipelines 0 a 0 len;
      st.pipelines <- a
    end;
    let p =
      {
        p_id = { node = st.self; thread };
        next_slot = 0;
        done_upto = -1;
        slots = Window.create ~dummy:no_slot;
      }
    in
    st.pipelines.(thread) <- Some p;
    p

(* A slot not in [slots] but below [next_slot] has validated locally —
   either [finish_slot] removed it or the no-follower fast path never
   inserted it — so the watermark sits just below the lowest open slot. *)
let advance_done pipe =
  pipe.done_upto <-
    (if Window.length pipe.slots = 0 then pipe.next_slot else Window.low pipe.slots) - 1

let validate_local st ~tx ~writes ~has_durable =
  emit st (Validate_local { writes });
  emit st (Telemetry (Count C_durable));
  if has_durable then emit st (Durable { tx })

(* The clear mark a VAL carries is per recipient: the highest slot [f] need
   not wait for.  Starting from the contiguous [done_upto] watermark, every
   further slot is vouched if it validated (left [slots]) or if [f] is not
   among its missing acks — then [f] either already applied it (and holds
   its own mark) or was never a follower, so no R-INV for it can ever reach
   [f], re-driven or not.  The scan stops at the first slot still missing
   [f]'s ack: vouching {e that} would let a still-in-flight R-INV be
   dedup-acked without applying.  This carries exactly the knowledge the
   legacy receiver inferred from link order, so on FIFO transports the two
   modes behave identically.  The scan is also capped at the VAL's own slot:
   vouching higher slots would be sound but would clear {e more} than the
   legacy jump, perturbing apply timing on FIFO runs for no benefit. *)
let upto_for pipe f ~slot =
  let u = ref pipe.done_upto in
  let blocked = ref false in
  while (not !blocked) && !u + 1 <= slot do
    let s = Window.find pipe.slots (!u + 1) in
    if s != no_slot && mem_node f s.s_missing then blocked := true else incr u
  done;
  !u

(* One R-VAL per live recipient, in list order. *)
let rec send_vals st pipe (s : slot_state) ~epoch = function
  | [] -> ()
  | f :: rest ->
    if live st f then begin
      let upto = upto_for pipe f ~slot:s.s_tx.slot in
      emit st (Send { dst = f; size = 32; payload = R_val { tx = s.s_tx; upto; epoch } })
    end;
    send_vals st pipe s ~epoch rest

let finish_slot st pipe (s : slot_state) =
  Window.remove pipe.slots s.s_tx.slot;
  advance_done pipe;
  if s.s_span >= 0 then emit st (Telemetry (Span_finish s.s_span));
  validate_local st ~tx:s.s_tx ~writes:s.s_writes ~has_durable:s.s_has_durable;
  let epoch = st.env.epoch in
  send_vals st pipe s ~epoch s.s_followers;
  send_vals st pipe s ~epoch s.s_extra_vals

let rec send_all st ~size payload = function
  | [] -> ()
  | f :: rest ->
    emit st (Send { dst = f; size; payload });
    send_all st ~size payload rest

(* A follower of this slot that is not one of the still-open previous
   slot's is owed that slot's R-VAL too: it is how the follower learns the
   predecessor cleared (partial streams, §5.2). *)
let rec add_extra_vals (prev : slot_state) = function
  | [] -> ()
  | f :: rest ->
    if not (mem_node f prev.s_followers || mem_node f prev.s_extra_vals) then
      prev.s_extra_vals <- f :: prev.s_extra_vals;
    add_extra_vals prev rest

(* The followers of a commit, most recently met first: every replica of
   every update, bar this node, once. *)
let rec add_followers self acc = function
  | [] -> acc
  | n :: rest ->
    add_followers self (if n = self || mem_node n acc then acc else n :: acc) rest

let rec collect_followers self acc = function
  | [] -> acc
  | all :: rest -> collect_followers self (add_followers self acc all) rest

let api_commit st ~thread ~updates ~replica_sets ~has_durable =
  emit st (Telemetry (Count C_started));
  let pipe = get_pipe st thread in
  let slot = pipe.next_slot in
  pipe.next_slot <- slot + 1;
  let tx = { pipe = pipe.p_id; slot } in
  match live_only st.env.live (collect_followers st.self [] replica_sets) with
  | [] -> validate_local st ~tx ~writes:updates ~has_durable
  | followers ->
    let span =
      if st.env.trace_on then begin
        let tok = fresh_token st in
        emit st
          (Telemetry
             (Span_start
                {
                  token = tok;
                  thread;
                  slot;
                  followers = List.length followers;
                  writes = List.length updates;
                }));
        tok
      end
      else -1
    in
    Window.set pipe.slots slot
      {
        s_tx = tx;
        s_writes = updates;
        s_followers = followers;
        s_missing = followers;
        s_extra_vals = [];
        s_has_durable = has_durable;
        s_span = span;
      };
    let prev = Window.find pipe.slots (slot - 1) in
    if prev != no_slot then add_extra_vals prev followers;
    send_all st ~size:(writes_size updates)
      (R_inv
         {
           tx;
           epoch = st.env.epoch;
           followers;
           writes = updates;
           prev_val = prev == no_slot;
           replay = false;
         })
      followers

(* ---------- follower ------------------------------------------------------ *)

let find_follower_pipe st (pid : pipe_id) =
  let row = st.follower_pipes.(pid.node) in
  if pid.thread < Array.length row then row.(pid.thread) else None

let get_follower_pipe st (pid : pipe_id) =
  match find_follower_pipe st pid with
  | Some fp -> fp
  | None ->
    let row = st.follower_pipes.(pid.node) in
    let len = Array.length row in
    if pid.thread >= len then begin
      let a = Array.make (max (pid.thread + 1) (max 8 (2 * len))) None in
      Array.blit row 0 a 0 len;
      st.follower_pipes.(pid.node) <- a
    end;
    let fp =
      {
        cleared_upto = -1;
        marks = Window.create ~dummy:false;
        stored = Window.create ~dummy:no_inv;
        buffered = Window.create ~dummy:no_buffered;
      }
    in
    st.follower_pipes.(pid.node).(pid.thread) <- Some fp;
    fp

(* ---- sequence-aware clear marks (Sequenced mode) ----
   [cleared fp s] means slot [s] of the pipe is handled at this follower:
   its writes were applied and stored here, or a clear mark (watermark or
   individual VAL) proved the slot completed without involving us.  The
   watermark [cleared_upto] absorbs marks as they become contiguous, so
   [marks] only holds the sparse frontier above coordinator-side gaps. *)

let cleared fp slot = slot <= fp.cleared_upto || Window.mem fp.marks slot

let compact_marks fp =
  while Window.mem fp.marks (fp.cleared_upto + 1) do
    Window.remove fp.marks (fp.cleared_upto + 1);
    fp.cleared_upto <- fp.cleared_upto + 1
  done

let mark_handled fp slot =
  if slot > fp.cleared_upto then Window.set fp.marks slot true;
  compact_marks fp

let advance_cleared fp upto =
  if upto > fp.cleared_upto then begin
    fp.cleared_upto <- upto;
    Window.remove_below fp.marks (upto + 1)
  end;
  compact_marks fp

let dead_stored_count st =
  let n = ref 0 in
  Array.iteri
    (fun node row ->
      if not (live st node) then
        Array.iter (function Some fp -> n := !n + Window.length fp.stored | None -> ()) row)
    st.follower_pipes;
  !n

let check_drained st =
  match st.recovering_epoch with
  | Some e when dead_stored_count st = 0 ->
    st.recovering_epoch <- None;
    emit st (Drained { epoch = e })
  | Some _ | None -> ()

(* An R-VAL, or a finished replay, for a slot stored here. *)
let validate_stored st fp slot =
  let si = Window.find fp.stored slot in
  if si != no_inv then begin
    emit st (Validate_stored { writes = si.i_writes });
    Window.remove fp.stored slot;
    check_drained st
  end

(* Legacy drain: the watermark is the only clear mark, so only the exactly
   contiguous next slot can unblock. *)
let rec drain_buffered st fp =
  match st.mode with
  | Legacy ->
    let next = fp.cleared_upto + 1 in
    let b = Window.find fp.buffered next in
    if b != no_buffered then begin
      Window.remove fp.buffered next;
      apply_slot st fp ~tx:b.b_tx ~followers:b.b_followers ~writes:b.b_writes ~src:b.b_src
        ~install:true;
      drain_buffered st fp
    end
  | Sequenced when Window.length fp.buffered = 0 -> ()
  | Sequenced ->
    (* Sequenced: a sparse mark can unblock any buffered slot whose
       predecessor just became handled, not only the contiguous next one.
       Ascending order keeps the effect stream identical to the legacy
       contiguous drain when marks happen to be contiguous (FIFO runs). *)
    let progressed = ref false in
    for slot = Window.low fp.buffered to Window.high fp.buffered - 1 do
      let b = Window.find fp.buffered slot in
      if b != no_buffered && (slot = 0 || cleared fp (slot - 1)) then begin
        Window.remove fp.buffered slot;
        apply_slot st fp ~tx:b.b_tx ~followers:b.b_followers ~writes:b.b_writes
          ~src:b.b_src ~install:true;
        progressed := true
      end
    done;
    if !progressed then drain_buffered st fp

and apply_slot st fp ~tx ~followers ~writes ~src ~install =
  emit st (Apply_writes { install; writes });
  Window.set fp.stored tx.slot { i_tx = tx; i_followers = followers; i_writes = writes };
  (match st.mode with
  | Legacy -> if tx.slot > fp.cleared_upto then fp.cleared_upto <- tx.slot
  | Sequenced -> mark_handled fp tx.slot);
  emit st (Send { dst = src; size = 32; payload = R_ack { tx; sender = st.self } })

let handle_inv st ~src ~tx ~followers ~writes ~prev_val ~replay =
  let fp = get_follower_pipe st tx.pipe in
  if Window.mem fp.stored tx.slot || cleared fp tx.slot then
    emit st (Send { dst = src; size = 32; payload = R_ack { tx; sender = st.self } })
  else begin
    (if prev_val && tx.slot - 1 > fp.cleared_upto then
       match st.mode with
       | Legacy -> fp.cleared_upto <- tx.slot - 1
       | Sequenced -> advance_cleared fp (tx.slot - 1));
    let pred_handled =
      match st.mode with
      | Legacy -> fp.cleared_upto >= tx.slot - 1
      | Sequenced -> cleared fp (tx.slot - 1)
    in
    if replay || pred_handled then begin
      apply_slot st fp ~tx ~followers ~writes ~src ~install:(not replay);
      drain_buffered st fp
    end
    else
      Window.set fp.buffered tx.slot
        { b_tx = tx; b_followers = followers; b_writes = writes; b_src = src }
  end

(* Legacy receiver: an R-VAL for an unknown pipe is dropped, not adopted,
   and clearing is the bare arrival-order watermark [cleared_upto :=
   tx.slot].  That is only sound when each link delivers payloads in order
   (the RDMA RC assumption of §3.1): under arbitrary reordering an
   extra-val VAL overtaking the pipe's first R-INV leaves that INV
   buffered forever — the liveness hole Core_harness reproduces with
   [fifo = false] + [clear_marks:Legacy], kept as the pinned negative
   control in [zeus_cli model]. *)
let handle_val_legacy st ~tx =
  match find_follower_pipe st tx.pipe with
  | None -> ()
  | Some fp ->
    validate_stored st fp tx.slot;
    if tx.slot > fp.cleared_upto then begin
      fp.cleared_upto <- tx.slot;
      drain_buffered st fp
    end

(* Sequenced receiver (default): ordering is carried by the message, not
   the link.  The VAL clears exactly what its sender can vouch for — its
   own slot, plus the carried [upto] watermark (every slot <= upto had
   completed replication at send time, so a slot this node stored below it
   was already applied here, and a slot it never saw cannot involve it) —
   never the arrival-order [tx.slot] jump of the legacy path, which under
   reordering would silently clear still-open earlier slots.  A VAL for an
   unknown pipe is {e adopted}: the pipe is created and the clear marks
   recorded, so the overtaken first R-INV finds its predecessor handled
   when it lands.  Epoch fencing keeps the PR 9 invariant: adoption is
   refused for stale-incarnation stragglers (see [deliver]). *)
let handle_val st ~tx ~upto =
  let fp = get_follower_pipe st tx.pipe in
  validate_stored st fp tx.slot;
  advance_cleared fp upto;
  mark_handled fp tx.slot;
  drain_buffered st fp

(* ---------- replay after a coordinator crash (§5.1) ---------------------- *)

let finish_replay st (s : slot_state) =
  st.replaying <- Tx_map.remove s.s_tx st.replaying;
  (match find_follower_pipe st s.s_tx.pipe with
  | Some fp -> validate_stored st fp s.s_tx.slot
  | None -> ());
  (* A replayer cannot vouch for earlier slots of the dead pipe (it may
     not have stored them), so the replay VAL carries no watermark: it
     clears exactly its own slot. *)
  send_all st ~size:32 (R_val { tx = s.s_tx; upto = -1; epoch = st.env.epoch }) s.s_followers

let replay_inv ~tx ~epoch ~followers ~writes =
  R_inv { tx; epoch; followers; writes; prev_val = false; replay = true }

let start_replay st (si : stored_inv) =
  if not (Tx_map.mem si.i_tx st.replaying) then begin
    emit st (Telemetry (Count C_replays));
    let others = List.filter (fun f -> f <> st.self && live st f) si.i_followers in
    let s =
      {
        s_tx = si.i_tx;
        s_writes = si.i_writes;
        s_followers = others;
        s_missing = others;
        s_extra_vals = [];
        s_has_durable = false;
        s_span = -1;
      }
    in
    match others with
    | [] -> finish_replay st s
    | _ ->
      st.replaying <- Tx_map.add si.i_tx s st.replaying;
      send_all st ~size:(writes_size si.i_writes)
        (replay_inv ~tx:si.i_tx ~epoch:st.env.epoch ~followers:si.i_followers
           ~writes:si.i_writes)
        others
  end

let handle_ack st ~tx ~sender =
  if tx.pipe.node = st.self then begin
    match find_pipe st tx.pipe.thread with
    | None -> ()
    | Some pipe ->
      let s = Window.find pipe.slots tx.slot in
      if s != no_slot then begin
        s.s_missing <- remove_node sender s.s_missing;
        match s.s_missing with [] -> finish_slot st pipe s | _ :: _ -> ()
      end
  end
  else begin
    match Tx_map.find_opt tx st.replaying with
    | None -> ()
    | Some s -> (
      s.s_missing <- remove_node sender s.s_missing;
      match s.s_missing with [] -> finish_replay st s | _ :: _ -> ())
  end

(* ---------- membership --------------------------------------------------- *)

(* Every walk below runs in ascending key order — threads then slots,
   [(node, thread)] for follower pipes, [tx] for replays — so the effect
   stream of a view change does not depend on table layout. *)
let iter_pipes f st = Array.iter (function Some p -> f p | None -> ()) st.pipelines

let view_change st ~view_epoch ~(vlive : bool array) =
  let died = ref [] and revived = ref [] in
  Array.iteri
    (fun i was ->
      if was && not vlive.(i) then died := i :: !died
      else if (not was) && vlive.(i) then revived := i :: !revived)
    st.prev_live;
  st.prev_live <- Array.copy vlive;
  List.iter (fun node -> st.follower_pipes.(node) <- [||]) !revived;
  if !died <> [] then begin
    let alive n = vlive.(n) in
    iter_pipes
      (fun pipe ->
        Window.iter
          (fun _ s ->
            s.s_missing <- List.filter alive s.s_missing;
            if s.s_missing = [] then finish_slot st pipe s)
          pipe.slots)
      st;
    Tx_map.iter
      (fun _ s ->
        s.s_missing <- List.filter alive s.s_missing;
        if s.s_missing = [] then finish_replay st s)
      st.replaying;
    st.recovering_epoch <- Some view_epoch;
    Array.iteri
      (fun node row ->
        if not (alive node) then
          Array.iter
            (function
              | Some fp ->
                Window.clear fp.buffered;
                Window.iter (fun _ si -> start_replay st si) fp.stored
              | None -> ())
            row)
      st.follower_pipes;
    check_drained st
  end;
  (* Re-drive open slots / replays at the new epoch (stale-only fencing on
     the receive side would otherwise lose one fenced R-INV for good). *)
  let epoch = view_epoch in
  iter_pipes
    (fun pipe ->
      Window.iter
        (fun _ (s : slot_state) ->
          let prev = Window.find pipe.slots (s.s_tx.slot - 1) in
          let targets = List.filter (fun f -> vlive.(f)) s.s_missing in
          if prev != no_slot then add_extra_vals prev targets;
          send_all st ~size:(writes_size s.s_writes)
            (R_inv
               {
                 tx = s.s_tx;
                 epoch;
                 followers = s.s_followers;
                 writes = s.s_writes;
                 prev_val = prev == no_slot;
                 replay = false;
               })
            targets)
        pipe.slots)
    st;
  Tx_map.iter
    (fun _ (s : slot_state) ->
      send_all st ~size:(writes_size s.s_writes)
        (replay_inv ~tx:s.s_tx ~epoch ~followers:s.s_followers ~writes:s.s_writes)
        (List.filter (fun f -> vlive.(f)) s.s_missing))
    st.replaying;
  emit st Flush

let reset st =
  Array.fill st.pipelines 0 (Array.length st.pipelines) None;
  Array.fill st.follower_pipes 0 (Array.length st.follower_pipes) [||];
  st.replaying <- Tx_map.empty;
  st.recovering_epoch <- None

(* ---------- dispatch ------------------------------------------------------ *)

let deliver st ~src payload =
  match payload with
  | R_inv { tx; epoch = e; followers; writes; prev_val; replay } ->
    (* Fence stale epochs only; accept future epochs from live peers (they
       installed the next view first) but keep fencing senders we still see
       as dead — their rejoin wipe has not reached us yet. *)
    if e = st.env.epoch || (e > st.env.epoch && live st src) then
      handle_inv st ~src ~tx ~followers ~writes ~prev_val ~replay
  | R_ack { tx; sender } -> handle_ack st ~tx ~sender
  | R_val { tx; upto; epoch = e } -> (
    match st.mode with
    | Legacy -> handle_val_legacy st ~tx
    | Sequenced ->
      (* A VAL for a pipe we already track is always safe to process: its
         claims (slot committed, slots <= upto committed) are monotone
         facts, valid across view changes.  A VAL for an {e unknown} pipe
         is adopted only under the R-INV fence — current epoch, or a
         future epoch from a live peer: a stale-epoch straggler may
         predate a fence-and-reset of this pipe's incarnation, and a
         fresh incarnation must not resurrect pipe state (PR 9). *)
      if
        Option.is_some (find_follower_pipe st tx.pipe)
        || e = st.env.epoch
        || (e > st.env.epoch && live st src)
      then handle_val st ~tx ~upto)
  | _ -> ()

let handle st input =
  (match input with
  | Deliver { src; payload; env } ->
    st.env <- env;
    deliver st ~src payload
  | Api_commit { thread; updates; replica_sets; has_durable; env } ->
    st.env <- env;
    api_commit st ~thread ~updates ~replica_sets ~has_durable
  | View_change { view_epoch; live; env } ->
    st.env <- env;
    view_change st ~view_epoch ~vlive:live
  | Reset -> reset st);
  (st, take_effects st)

(* ---------- deep copy + canonical fingerprint (model checking) ----------- *)

let copy_slot (s : slot_state) = { s with s_missing = s.s_missing }  (* a fresh record *)

let copy_follower_pipe fp =
  {
    cleared_upto = fp.cleared_upto;
    marks = Window.copy Fun.id fp.marks;
    stored = Window.copy Fun.id fp.stored;
    buffered = Window.copy Fun.id fp.buffered;
  }

let copy st =
  {
    st with
    pipelines =
      Array.map
        (Option.map (fun p -> { p with slots = Window.copy copy_slot p.slots }))
        st.pipelines;
    follower_pipes = Array.map (Array.map (Option.map copy_follower_pipe)) st.follower_pipes;
    replaying = Tx_map.map copy_slot st.replaying;
    prev_live = Array.copy st.prev_live;
    out = Array.make out_capacity Flush;
    n_out = 0;
  }

let pp_writes ppf writes =
  List.iter
    (fun (u : Txn.update) ->
      Format.fprintf ppf "(%d v%d %s%s)" u.Txn.key u.Txn.version
        (Bytes.to_string u.Txn.data)
        (if u.Txn.freed then " freed" else ""))
    writes

let pp_slot ppf (s : slot_state) =
  Format.fprintf ppf "{%a w=%a f=[%s] m=[%s] xv=[%s] d=%b}" Messages.pp_tx s.s_tx
    pp_writes s.s_writes
    (String.concat ";" (List.map string_of_int s.s_followers))
    (String.concat ";" (List.map string_of_int (List.sort compare s.s_missing)))
    (String.concat ";" (List.map string_of_int (List.sort compare s.s_extra_vals)))
    s.s_has_durable

let fingerprint st =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "n%d rec=%s pl=[%s]@," st.self
    (match st.recovering_epoch with Some e -> string_of_int e | None -> "-")
    (String.concat ";"
       (Array.to_list (Array.map (fun l -> if l then "1" else "0") st.prev_live)));
  Array.iteri
    (fun thread -> function
      | None -> ()
      | Some p ->
        Format.fprintf ppf "P%d next=%d done=%d@," thread p.next_slot p.done_upto;
        Window.iter (fun slot s -> Format.fprintf ppf " s%d %a@," slot pp_slot s) p.slots)
    st.pipelines;
  Array.iteri
    (fun node ->
      Array.iteri (fun thread -> function
        | None -> ()
        | Some fp ->
          let marks = ref [] in
          Window.iter (fun k _ -> marks := string_of_int k :: !marks) fp.marks;
          Format.fprintf ppf "F n%d.t%d cleared=%d marks=[%s]@," node thread fp.cleared_upto
            (String.concat ";" (List.rev !marks));
          Window.iter
            (fun slot (si : stored_inv) ->
              Format.fprintf ppf " i%d f=[%s] w=%a@," slot
                (String.concat ";" (List.map string_of_int si.i_followers))
                pp_writes si.i_writes)
            fp.stored;
          Window.iter
            (fun slot (bi : buffered_inv) ->
              Format.fprintf ppf " b%d src=n%d f=[%s] w=%a@," slot bi.b_src
                (String.concat ";" (List.map string_of_int bi.b_followers))
                pp_writes bi.b_writes)
            fp.buffered))
    st.follower_pipes;
  Tx_map.iter (fun _ s -> Format.fprintf ppf "R %a@," pp_slot s) st.replaying;
  Format.pp_print_flush ppf ();
  Buffer.contents b
