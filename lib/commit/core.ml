(* Sans-I/O core of the reliable commit protocol (§5).

   Same architecture as {!Zeus_ownership.Core}: [handle st input] mutates
   the pipeline/follower state in place and returns the ordered effect
   list its runtime must execute.  Store access is inverted two ways:
   reads arrive pre-sampled in the input (the per-update replica sets of
   an {!Api_commit}), writes leave as the three coarse store transforms
   the old agent performed inline ({!Validate_local}, {!Apply_writes},
   {!Validate_stored}) — the simulator interpreter runs them against the
   real {!Zeus_store.Table}, the model harness against its model store. *)

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
  mutable next_slot : int;
  mutable done_upto : int;
      (* contiguous commit watermark: every slot <= done_upto has validated
         locally (it was removed from [slots], or never entered them — the
         no-follower fast path); this is the [upto] clear mark R-VALs carry *)
  slots : (int, slot_state) Hashtbl.t;
}

type stored_inv = {
  i_tx : tx_id;
  i_followers : Types.node_id list;
  i_writes : Txn.update list;
}

type buffered_inv = {
  b_followers : Types.node_id list;
  b_writes : Txn.update list;
  b_src : Types.node_id;
}

type follower_pipe = {
  mutable cleared_upto : int;
  marks : (int, unit) Hashtbl.t;
      (* Sequenced mode only: slots above [cleared_upto] known handled
         (stored or cleared by a VAL) while earlier slots are still open at
         the coordinator; compacted into [cleared_upto] as gaps close *)
  stored : (int, stored_inv) Hashtbl.t;
  buffered : (int, buffered_inv) Hashtbl.t;
}

type state = {
  self : Types.node_id;
  mode : clear_marks;
  pipelines : (int, pipeline) Hashtbl.t;
  follower_pipes : (pipe_id, follower_pipe) Hashtbl.t;
  replaying : (tx_id, slot_state) Hashtbl.t;
  mutable prev_live : bool array;
  mutable recovering_epoch : int option;
  mutable token_seq : int;
}

let create ?(clear_marks = Sequenced) ~self ~nodes () =
  {
    self;
    mode = clear_marks;
    pipelines = Hashtbl.create 16;
    follower_pipes = Hashtbl.create 64;
    replaying = Hashtbl.create 16;
    prev_live = Array.make nodes true;
    recovering_epoch = None;
    token_seq = 0;
  }

let inflight st =
  Hashtbl.fold (fun _ p acc -> acc + Hashtbl.length p.slots) st.pipelines 0

let stored_invs st =
  Hashtbl.fold (fun _ fp acc -> acc + Hashtbl.length fp.stored) st.follower_pipes 0

let buffered_invs st =
  Hashtbl.fold
    (fun _ fp acc -> acc + Hashtbl.length fp.buffered)
    st.follower_pipes 0

let replaying_count st = Hashtbl.length st.replaying
let recovering_epoch st = st.recovering_epoch

let peek_slot st ~thread =
  match Hashtbl.find_opt st.pipelines thread with
  | Some p -> p.next_slot
  | None -> 0

let handles_payload = function R_inv _ | R_ack _ | R_val _ -> true | _ -> false

let writes_size writes =
  List.fold_left (fun acc (u : Txn.update) -> acc + Value.size u.data + 16) 64 writes

type ctx = { st : state; env : env; emit : eff -> unit }

let live c n = c.env.live.(n)

let fresh_token st =
  let tok = st.token_seq in
  st.token_seq <- tok + 1;
  tok

(* ---------- coordinator -------------------------------------------------- *)

let get_pipe st thread =
  match Hashtbl.find_opt st.pipelines thread with
  | Some p -> p
  | None ->
    let p = { next_slot = 0; done_upto = -1; slots = Hashtbl.create 32 } in
    Hashtbl.replace st.pipelines thread p;
    p

(* A slot not in [slots] but below [next_slot] has validated locally —
   either [finish_slot] removed it or the no-follower fast path never
   inserted it — so the watermark may advance over it. *)
let advance_done pipe =
  while
    pipe.done_upto + 1 < pipe.next_slot
    && not (Hashtbl.mem pipe.slots (pipe.done_upto + 1))
  do
    pipe.done_upto <- pipe.done_upto + 1
  done

let validate_local c (s : slot_state) =
  c.emit (Validate_local { writes = s.s_writes });
  c.emit (Telemetry (Count C_durable));
  if s.s_has_durable then c.emit (Durable { tx = s.s_tx })

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
    match Hashtbl.find_opt pipe.slots (!u + 1) with
    | None -> incr u
    | Some s -> if List.mem f s.s_missing then blocked := true else incr u
  done;
  !u

let finish_slot c pipe (s : slot_state) =
  Hashtbl.remove pipe.slots s.s_tx.slot;
  advance_done pipe;
  if s.s_span >= 0 then c.emit (Telemetry (Span_finish s.s_span));
  validate_local c s;
  let recipients =
    List.filter (fun n -> live c n) (s.s_followers @ s.s_extra_vals)
  in
  let epoch = c.env.epoch in
  List.iter
    (fun f ->
      c.emit
        (Send
           {
             dst = f;
             size = 32;
             payload =
               R_val
                 { tx = s.s_tx; upto = upto_for pipe f ~slot:s.s_tx.slot; epoch };
           }))
    recipients

let api_commit c ~thread ~updates ~replica_sets ~has_durable =
  let st = c.st in
  c.emit (Telemetry (Count C_started));
  let pipe = get_pipe st thread in
  let slot = pipe.next_slot in
  pipe.next_slot <- slot + 1;
  let tx = { pipe = { node = st.self; thread }; slot } in
  let followers =
    List.fold_left
      (fun acc all ->
        List.fold_left
          (fun acc n -> if n = st.self || List.mem n acc then acc else n :: acc)
          acc all)
      [] replica_sets
  in
  let followers = List.filter (fun f -> live c f) followers in
  if followers = [] then begin
    let s =
      {
        s_tx = tx;
        s_writes = updates;
        s_followers = [];
        s_missing = [];
        s_extra_vals = [];
        s_has_durable = has_durable;
        s_span = -1;
      }
    in
    validate_local c s
  end
  else begin
    let span =
      if c.env.trace_on then begin
        let tok = fresh_token st in
        c.emit
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
    let s =
      {
        s_tx = tx;
        s_writes = updates;
        s_followers = followers;
        s_missing = followers;
        s_extra_vals = [];
        s_has_durable = has_durable;
        s_span = span;
      }
    in
    Hashtbl.replace pipe.slots slot s;
    let prev = Hashtbl.find_opt pipe.slots (slot - 1) in
    let e = c.env.epoch in
    let size = writes_size updates in
    List.iter
      (fun f ->
        let prev_val =
          match prev with
          | None -> true
          | Some ps ->
            if not (List.mem f ps.s_followers || List.mem f ps.s_extra_vals) then
              ps.s_extra_vals <- f :: ps.s_extra_vals;
            false
        in
        c.emit
          (Send
             {
               dst = f;
               size;
               payload =
                 R_inv
                   { tx; epoch = e; followers; writes = updates; prev_val; replay = false };
             }))
      followers
  end

(* ---------- follower ------------------------------------------------------ *)

let get_follower_pipe st pipe_id =
  match Hashtbl.find_opt st.follower_pipes pipe_id with
  | Some fp -> fp
  | None ->
    let fp =
      {
        cleared_upto = -1;
        marks = Hashtbl.create 8;
        stored = Hashtbl.create 32;
        buffered = Hashtbl.create 8;
      }
    in
    Hashtbl.replace st.follower_pipes pipe_id fp;
    fp

(* ---- sequence-aware clear marks (Sequenced mode) ----
   [cleared fp s] means slot [s] of the pipe is handled at this follower:
   its writes were applied and stored here, or a clear mark (watermark or
   individual VAL) proved the slot completed without involving us.  The
   watermark [cleared_upto] absorbs marks as they become contiguous, so
   [marks] only holds the sparse frontier above coordinator-side gaps. *)

let cleared fp slot = slot <= fp.cleared_upto || Hashtbl.mem fp.marks slot

let compact_marks fp =
  while Hashtbl.mem fp.marks (fp.cleared_upto + 1) do
    Hashtbl.remove fp.marks (fp.cleared_upto + 1);
    fp.cleared_upto <- fp.cleared_upto + 1
  done

let mark_handled fp slot =
  if slot > fp.cleared_upto then Hashtbl.replace fp.marks slot ();
  compact_marks fp

let advance_cleared fp upto =
  if upto > fp.cleared_upto then begin
    fp.cleared_upto <- upto;
    let stale = Hashtbl.fold (fun s () acc -> if s <= upto then s :: acc else acc) fp.marks [] in
    List.iter (Hashtbl.remove fp.marks) stale
  end;
  compact_marks fp

let dead_stored_count c =
  Hashtbl.fold
    (fun (pid : pipe_id) fp acc ->
      if live c pid.node then acc else acc + Hashtbl.length fp.stored)
    c.st.follower_pipes 0

let check_drained c =
  match c.st.recovering_epoch with
  | Some e when dead_stored_count c = 0 ->
    c.st.recovering_epoch <- None;
    c.emit (Drained { epoch = e })
  | Some _ | None -> ()

let validate_stored c fp slot (si : stored_inv) =
  c.emit (Validate_stored { writes = si.i_writes });
  Hashtbl.remove fp.stored slot;
  check_drained c

(* Legacy drain: the watermark is the only clear mark, so only the exactly
   contiguous next slot can unblock. *)
let rec drain_buffered c pipe_id fp =
  match c.st.mode with
  | Legacy -> (
    let next = fp.cleared_upto + 1 in
    match Hashtbl.find_opt fp.buffered next with
    | Some b ->
      Hashtbl.remove fp.buffered next;
      apply_slot c pipe_id fp ~slot:next ~followers:b.b_followers ~writes:b.b_writes
        ~src:b.b_src ~install:true;
      drain_buffered c pipe_id fp
    | None -> ())
  | Sequenced when Hashtbl.length fp.buffered = 0 -> ()
  | Sequenced ->
    (* Sequenced: a sparse mark can unblock any buffered slot whose
       predecessor just became handled, not only the contiguous next one.
       Ascending order keeps the effect stream identical to the legacy
       contiguous drain when marks happen to be contiguous (FIFO runs). *)
    let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) fp.buffered []) in
    let progressed = ref false in
    List.iter
      (fun slot ->
        if Hashtbl.mem fp.buffered slot && (slot = 0 || cleared fp (slot - 1)) then begin
          let b = Hashtbl.find fp.buffered slot in
          Hashtbl.remove fp.buffered slot;
          apply_slot c pipe_id fp ~slot ~followers:b.b_followers ~writes:b.b_writes
            ~src:b.b_src ~install:true;
          progressed := true
        end)
      keys;
    if !progressed then drain_buffered c pipe_id fp

and apply_slot c pipe_id fp ~slot ~followers ~writes ~src ~install =
  c.emit (Apply_writes { install; writes });
  Hashtbl.replace fp.stored slot
    { i_tx = { pipe = pipe_id; slot }; i_followers = followers; i_writes = writes };
  (match c.st.mode with
  | Legacy -> if slot > fp.cleared_upto then fp.cleared_upto <- slot
  | Sequenced -> mark_handled fp slot);
  c.emit
    (Send
       {
         dst = src;
         size = 32;
         payload = R_ack { tx = { pipe = pipe_id; slot }; sender = c.st.self };
       })

let handle_inv c ~src ~tx ~followers ~writes ~prev_val ~replay =
  let fp = get_follower_pipe c.st tx.pipe in
  if Hashtbl.mem fp.stored tx.slot || cleared fp tx.slot then
    c.emit (Send { dst = src; size = 32; payload = R_ack { tx; sender = c.st.self } })
  else begin
    (if prev_val && tx.slot - 1 > fp.cleared_upto then
       match c.st.mode with
       | Legacy -> fp.cleared_upto <- tx.slot - 1
       | Sequenced -> advance_cleared fp (tx.slot - 1));
    let pred_handled =
      match c.st.mode with
      | Legacy -> fp.cleared_upto >= tx.slot - 1
      | Sequenced -> cleared fp (tx.slot - 1)
    in
    if replay || pred_handled then begin
      apply_slot c tx.pipe fp ~slot:tx.slot ~followers ~writes ~src
        ~install:(not replay);
      drain_buffered c tx.pipe fp
    end
    else
      Hashtbl.replace fp.buffered tx.slot
        { b_followers = followers; b_writes = writes; b_src = src }
  end

(* Legacy receiver: an R-VAL for an unknown pipe is dropped, not adopted,
   and clearing is the bare arrival-order watermark [cleared_upto :=
   tx.slot].  That is only sound when each link delivers payloads in order
   (the RDMA RC assumption of §3.1): under arbitrary reordering an
   extra-val VAL overtaking the pipe's first R-INV leaves that INV
   buffered forever — the liveness hole Core_harness reproduces with
   [fifo = false] + [clear_marks:Legacy], kept as the pinned negative
   control in [zeus_cli model]. *)
let handle_val_legacy c ~tx =
  match Hashtbl.find_opt c.st.follower_pipes tx.pipe with
  | None -> ()
  | Some fp ->
    (match Hashtbl.find_opt fp.stored tx.slot with
    | Some si -> validate_stored c fp tx.slot si
    | None -> ());
    if tx.slot > fp.cleared_upto then begin
      fp.cleared_upto <- tx.slot;
      drain_buffered c tx.pipe fp
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
let handle_val c ~tx ~upto =
  let fp = get_follower_pipe c.st tx.pipe in
  (match Hashtbl.find_opt fp.stored tx.slot with
  | Some si -> validate_stored c fp tx.slot si
  | None -> ());
  advance_cleared fp upto;
  mark_handled fp tx.slot;
  drain_buffered c tx.pipe fp

(* ---------- replay after a coordinator crash (§5.1) ---------------------- *)

let finish_replay c (s : slot_state) =
  let st = c.st in
  Hashtbl.remove st.replaying s.s_tx;
  (match Hashtbl.find_opt st.follower_pipes s.s_tx.pipe with
  | Some fp -> (
    match Hashtbl.find_opt fp.stored s.s_tx.slot with
    | Some si -> validate_stored c fp s.s_tx.slot si
    | None -> ())
  | None -> ());
  (* A replayer cannot vouch for earlier slots of the dead pipe (it may
     not have stored them), so the replay VAL carries no watermark: it
     clears exactly its own slot. *)
  let epoch = c.env.epoch in
  List.iter
    (fun f ->
      c.emit
        (Send { dst = f; size = 32; payload = R_val { tx = s.s_tx; upto = -1; epoch } }))
    s.s_followers

let start_replay c (si : stored_inv) =
  let st = c.st in
  if not (Hashtbl.mem st.replaying si.i_tx) then begin
    c.emit (Telemetry (Count C_replays));
    let others = List.filter (fun f -> f <> st.self && live c f) si.i_followers in
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
    if others = [] then finish_replay c s
    else begin
      Hashtbl.replace st.replaying si.i_tx s;
      let e = c.env.epoch in
      let size = writes_size si.i_writes in
      List.iter
        (fun f ->
          c.emit
            (Send
               {
                 dst = f;
                 size;
                 payload =
                   R_inv
                     {
                       tx = si.i_tx;
                       epoch = e;
                       followers = si.i_followers;
                       writes = si.i_writes;
                       prev_val = false;
                       replay = true;
                     };
               }))
        others
    end
  end

let handle_ack c ~tx ~sender =
  let st = c.st in
  if tx.pipe.node = st.self then begin
    match Hashtbl.find_opt st.pipelines tx.pipe.thread with
    | None -> ()
    | Some pipe -> (
      match Hashtbl.find_opt pipe.slots tx.slot with
      | None -> ()
      | Some s ->
        s.s_missing <- List.filter (fun f -> f <> sender) s.s_missing;
        if s.s_missing = [] then finish_slot c pipe s)
  end
  else begin
    match Hashtbl.find_opt st.replaying tx with
    | None -> ()
    | Some s ->
      s.s_missing <- List.filter (fun f -> f <> sender) s.s_missing;
      if s.s_missing = [] then finish_replay c s
  end

(* ---------- membership --------------------------------------------------- *)

let view_change c ~view_epoch ~(vlive : bool array) =
  let st = c.st in
  let died = ref [] and revived = ref [] in
  Array.iteri
    (fun i was ->
      if was && not vlive.(i) then died := i :: !died
      else if (not was) && vlive.(i) then revived := i :: !revived)
    st.prev_live;
  st.prev_live <- Array.copy vlive;
  List.iter
    (fun node ->
      let stale =
        Hashtbl.fold
          (fun (pid : pipe_id) _ acc -> if pid.node = node then pid :: acc else acc)
          st.follower_pipes []
      in
      List.iter (Hashtbl.remove st.follower_pipes) stale)
    !revived;
  if !died <> [] then begin
    let alive n = vlive.(n) in
    Hashtbl.iter
      (fun _ pipe ->
        let slots = Hashtbl.fold (fun _ s acc -> s :: acc) pipe.slots [] in
        List.iter
          (fun s ->
            s.s_missing <- List.filter alive s.s_missing;
            if s.s_missing = [] then finish_slot c pipe s)
          slots)
      st.pipelines;
    let replays = Hashtbl.fold (fun _ s acc -> s :: acc) st.replaying [] in
    List.iter
      (fun s ->
        s.s_missing <- List.filter alive s.s_missing;
        if s.s_missing = [] then finish_replay c s)
      replays;
    st.recovering_epoch <- Some view_epoch;
    Hashtbl.iter
      (fun (pid : pipe_id) fp ->
        if not (alive pid.node) then begin
          Hashtbl.reset fp.buffered;
          Hashtbl.iter (fun _ si -> start_replay c si) fp.stored
        end)
      st.follower_pipes;
    check_drained c
  end;
  (* Re-drive open slots / replays at the new epoch (stale-only fencing on
     the receive side would otherwise lose one fenced R-INV for good). *)
  let e = view_epoch in
  Hashtbl.iter
    (fun _ pipe ->
      Hashtbl.iter
        (fun _ (s : slot_state) ->
          let size = writes_size s.s_writes in
          List.iter
            (fun f ->
              if vlive.(f) then begin
                let prev_val =
                  match Hashtbl.find_opt pipe.slots (s.s_tx.slot - 1) with
                  | None -> true
                  | Some ps ->
                    if not (List.mem f ps.s_followers || List.mem f ps.s_extra_vals)
                    then ps.s_extra_vals <- f :: ps.s_extra_vals;
                    false
                in
                c.emit
                  (Send
                     {
                       dst = f;
                       size;
                       payload =
                         R_inv
                           {
                             tx = s.s_tx;
                             epoch = e;
                             followers = s.s_followers;
                             writes = s.s_writes;
                             prev_val;
                             replay = false;
                           };
                     })
              end)
            s.s_missing)
        pipe.slots)
    st.pipelines;
  Hashtbl.iter
    (fun _ (s : slot_state) ->
      let size = writes_size s.s_writes in
      List.iter
        (fun f ->
          if vlive.(f) then
            c.emit
              (Send
                 {
                   dst = f;
                   size;
                   payload =
                     R_inv
                       {
                         tx = s.s_tx;
                         epoch = e;
                         followers = s.s_followers;
                         writes = s.s_writes;
                         prev_val = false;
                         replay = true;
                       };
                 }))
        s.s_missing)
    st.replaying;
  c.emit Flush

let reset st =
  Hashtbl.reset st.pipelines;
  Hashtbl.reset st.follower_pipes;
  Hashtbl.reset st.replaying;
  st.recovering_epoch <- None

(* ---------- dispatch ------------------------------------------------------ *)

let deliver c ~src payload =
  match payload with
  | R_inv { tx; epoch = e; followers; writes; prev_val; replay } ->
    (* Fence stale epochs only; accept future epochs from live peers (they
       installed the next view first) but keep fencing senders we still see
       as dead — their rejoin wipe has not reached us yet. *)
    if e = c.env.epoch || (e > c.env.epoch && live c src) then
      handle_inv c ~src ~tx ~followers ~writes ~prev_val ~replay
  | R_ack { tx; sender } -> handle_ack c ~tx ~sender
  | R_val { tx; upto; epoch = e } -> (
    match c.st.mode with
    | Legacy -> handle_val_legacy c ~tx
    | Sequenced ->
      (* A VAL for a pipe we already track is always safe to process: its
         claims (slot committed, slots <= upto committed) are monotone
         facts, valid across view changes.  A VAL for an {e unknown} pipe
         is adopted only under the R-INV fence — current epoch, or a
         future epoch from a live peer: a stale-epoch straggler may
         predate a fence-and-reset of this pipe's incarnation, and a
         fresh incarnation must not resurrect pipe state (PR 9). *)
      if
        Hashtbl.mem c.st.follower_pipes tx.pipe
        || e = c.env.epoch
        || (e > c.env.epoch && live c src)
      then handle_val c ~tx ~upto)
  | _ -> ()

let no_env = { epoch = 0; live = [||]; trace_on = false }

let env_of = function
  | Deliver { env; _ } | Api_commit { env; _ } | View_change { env; _ } -> env
  | Reset -> no_env

let handle st input =
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let c = { st; env = env_of input; emit } in
  (match input with
  | Deliver { src; payload; _ } -> deliver c ~src payload
  | Api_commit { thread; updates; replica_sets; has_durable; _ } ->
    api_commit c ~thread ~updates ~replica_sets ~has_durable
  | View_change { view_epoch; live; _ } -> view_change c ~view_epoch ~vlive:live
  | Reset -> reset st);
  (st, List.rev !acc)

(* ---------- deep copy + canonical fingerprint (model checking) ----------- *)

let copy_slot (s : slot_state) =
  {
    s_tx = s.s_tx;
    s_writes = s.s_writes;
    s_followers = s.s_followers;
    s_missing = s.s_missing;
    s_extra_vals = s.s_extra_vals;
    s_has_durable = s.s_has_durable;
    s_span = s.s_span;
  }

let copy st =
  let pipelines = Hashtbl.create 16 in
  Hashtbl.iter
    (fun thread p ->
      let slots = Hashtbl.create (Hashtbl.length p.slots * 2 + 1) in
      Hashtbl.iter (fun k s -> Hashtbl.replace slots k (copy_slot s)) p.slots;
      Hashtbl.replace pipelines thread
        { next_slot = p.next_slot; done_upto = p.done_upto; slots })
    st.pipelines;
  let follower_pipes = Hashtbl.create 64 in
  Hashtbl.iter
    (fun pid fp ->
      Hashtbl.replace follower_pipes pid
        {
          cleared_upto = fp.cleared_upto;
          marks = Hashtbl.copy fp.marks;
          stored = Hashtbl.copy fp.stored;
          buffered = Hashtbl.copy fp.buffered;
        })
    st.follower_pipes;
  let replaying = Hashtbl.create 16 in
  Hashtbl.iter (fun k s -> Hashtbl.replace replaying k (copy_slot s)) st.replaying;
  {
    self = st.self;
    mode = st.mode;
    pipelines;
    follower_pipes;
    replaying;
    prev_live = Array.copy st.prev_live;
    recovering_epoch = st.recovering_epoch;
    token_seq = st.token_seq;
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

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fingerprint st =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "n%d rec=%s pl=[%s]@," st.self
    (match st.recovering_epoch with Some e -> string_of_int e | None -> "-")
    (String.concat ";"
       (Array.to_list (Array.map (fun l -> if l then "1" else "0") st.prev_live)));
  List.iter
    (fun (thread, p) ->
      Format.fprintf ppf "P%d next=%d done=%d@," thread p.next_slot p.done_upto;
      List.iter
        (fun (slot, s) -> Format.fprintf ppf " s%d %a@," slot pp_slot s)
        (sorted_bindings p.slots))
    (sorted_bindings st.pipelines);
  List.iter
    (fun ((pid : pipe_id), fp) ->
      Format.fprintf ppf "F n%d.t%d cleared=%d marks=[%s]@," pid.node pid.thread
        fp.cleared_upto
        (String.concat ";"
           (List.map string_of_int
              (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) fp.marks []))));
      List.iter
        (fun (slot, (si : stored_inv)) ->
          Format.fprintf ppf " i%d f=[%s] w=%a@," slot
            (String.concat ";" (List.map string_of_int si.i_followers))
            pp_writes si.i_writes)
        (sorted_bindings fp.stored);
      List.iter
        (fun (slot, (bi : buffered_inv)) ->
          Format.fprintf ppf " b%d src=n%d f=[%s] w=%a@," slot bi.b_src
            (String.concat ";" (List.map string_of_int bi.b_followers))
            pp_writes bi.b_writes)
        (sorted_bindings fp.buffered))
    (sorted_bindings st.follower_pipes);
  List.iter
    (fun ((tx : tx_id), s) ->
      ignore tx;
      Format.fprintf ppf "R %a@," pp_slot s)
    (sorted_bindings st.replaying);
  Format.pp_print_flush ppf ();
  Buffer.contents b
