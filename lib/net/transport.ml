module Engine = Zeus_sim.Engine
module Metrics = Zeus_telemetry.Metrics
module Trace = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub

type config = { batching : bool; ordered : bool }

let default_config = { batching = true; ordered = true }

let unbatched config = { config with batching = false }
let unordered config = { config with ordered = false }

let rto_us = 40.0
let rto_backoff = 2.0
let rto_max_us = 2_000.0
let max_retries = 50
let flush_window_us = 2.0
let delayed_ack_us = 8.0
let max_batch = 32
let max_ooo = 512

(* Retransmission timeout after [retries] consecutive retransmissions with
   no window progress: capped exponential backoff, so a partitioned or dead
   peer is probed at a collapsing rate instead of hammered at 1/rto forever.
   The jitter is a pure avalanche hash of the flow identity and retry count
   — deterministic (same seed, same timers) yet de-synchronizing peer flows
   that backed off at the same instant. *)
let backoff_jitter ~src ~dst ~retries =
  let h =
    (src * 0x9e3779b1) lxor (dst * 0x85ebca6b) lxor ((retries + 1) * 0xc2b2ae35)
  in
  float_of_int (h land 0xffff) /. 65536.0

let rto_after ~src ~dst ~retries =
  let raw = rto_us *. (rto_backoff ** float_of_int retries) in
  let capped = Float.min raw rto_max_us in
  capped *. (1.0 +. (0.1 *. backoff_jitter ~src ~dst ~retries))

(* Wire framing.  A [Batch] carries consecutive payloads of one flow: its
   size is the sum of its payloads plus one header, and it piggybacks the
   cumulative ack of the reverse-direction flow.  [Ack_cum] is the
   standalone cumulative ack.  [inc] is the sender incarnation of the
   flow: it is bumped whenever a flow is reset (endpoint crash, or the
   sender giving up on an undeliverable window), so frames and acks of a
   previous incarnation can never be confused with the fresh stream that
   restarts at sequence 0. *)
let batch_header_bytes = 24
let ack_bytes = 16

type Msg.payload +=
  | Batch of {
      inc : int;
      first_seq : int;
      items : Msg.payload list;
      ack : int;  (** cumulative ack for the reverse flow *)
      ack_inc : int;
    }
  | Ack_cum of { upto : int; inc : int }
  | Ring_hole  (** filler for empty send-ring slots; never hits the wire *)

(* One directed flow src->dst.  The record holds both the sender-side state
   (living at [src]) and the receiver-side state (living at [dst]); in the
   simulator they share a cell, on real hardware they would be split. *)
type flow = {
  f_src : Msg.node_id;
  f_dst : Msg.node_id;
  (* ---- sender side (at src) ---- *)
  mutable tx_inc : int;
  mutable next_seq : int;
  mutable acked_upto : int;  (* cumulative: all seqs <= this are acked *)
  mutable flushed_upto : int;  (* all seqs <= this have hit the fabric once *)
  (* The unacked window lives in a power-of-two ring indexed by
     [seq land (cap - 1)] — O(1) store per send, nothing to delete on ack
     (advancing [acked_upto] abandons the slots), and frame assembly reads
     the stored payloads and sizes instead of re-packing a hashtable.
     [ring_size] holds each payload's size and [ring_enq] its enqueue
     timestamp, for the trace's batch residency. *)
  mutable ring : Msg.payload array;
  mutable ring_size : int array;
  mutable ring_enq : float array;
  mutable queued : bool;  (* on the source node's dirty stack *)
  mutable rto_ev : Engine.event_id;  (* [Engine.no_event] when unarmed *)
  mutable rto_fn : unit -> unit;  (* [on_rto t] of this flow, built once *)
  mutable rto_progress_at : float;  (* last time the window advanced *)
  mutable tx_retries : int;
  rto_first : float;
      (* [rto_after] at no retries, boxed once here rather than on every
         arming of a timer that has not backed off *)
  (* ---- receiver side (at dst) ---- *)
  mutable rx_inc : int;  (* sender incarnation currently accepted *)
  mutable watermark : int;  (* all seqs <= this delivered (cumulative) *)
  ooo : (int, Msg.payload) Hashtbl.t;
      (* ordered: out-of-order payloads held for in-order delivery *)
  seen_ahead : (int, unit) Hashtbl.t;
      (* unordered: seqs delivered above the watermark (bounded by the
         in-flight span) *)
  mutable ack_owed : bool;
  mutable dack_ev : Engine.event_id;  (* [Engine.no_event] when unarmed *)
  mutable dack_fn : unit -> unit;  (* [on_dack t] of this flow, built once *)
}

type t = {
  fabric : Fabric.t;
  config : config;
  handlers : (src:Msg.node_id -> Msg.payload -> unit) option array;
  flows : flow array array;  (* flows.(src).(dst) *)
  (* One flush event per NODE, serving every dirty flow it sources: a
     protocol burst to K peers costs one engine event, not K.  Each node's
     dirty flows sit on a stack of [nodes] cells (a flow is queued at most
     once), walked newest first. *)
  dirty : flow array array;
  dirty_top : int array;
  node_flush_ev : Engine.event_id array;  (* [Engine.no_event] when unarmed *)
  node_flush_fn : (unit -> unit) array;  (* built once per node *)
  (* Typed metric handles (registered once in [create]; a typo here is a
     compile error, and the hot path touches a resolved ref directly). *)
  c_retransmissions : Metrics.Counter.h;
  c_backoff : Metrics.Counter.h;
  c_frames : Metrics.Counter.h;
  c_payloads : Metrics.Counter.h;
  c_acks_piggybacked : Metrics.Counter.h;
  c_acks_standalone : Metrics.Counter.h;
  h_occupancy : Metrics.Histogram.h;
  trace : Trace.t;
}

type stats = {
  frames : int;
  payloads : int;
  retransmitted : int;
  piggybacked_acks : int;
  standalone_acks : int;
  mean_occupancy : float;
  max_occupancy : float;
}

let fresh_flow ~src ~dst =
  {
    f_src = src;
    f_dst = dst;
    tx_inc = 0;
    next_seq = 0;
    acked_upto = -1;
    flushed_upto = -1;
    ring = Array.make 16 Ring_hole;
    ring_size = Array.make 16 0;
    ring_enq = Array.make 16 0.0;
    queued = false;
    rto_ev = Engine.no_event;
    rto_fn = ignore;
    rto_progress_at = 0.0;
    tx_retries = 0;
    rto_first = rto_after ~src ~dst ~retries:0;
    rx_inc = 0;
    watermark = -1;
    ooo = Hashtbl.create 16;
    seen_ahead = Hashtbl.create 16;
    ack_owed = false;
    dack_ev = Engine.no_event;
    dack_fn = ignore;
  }

(* Fills the dirty stacks' free cells. *)
let no_flow = fresh_flow ~src:(-1) ~dst:(-1)

let fabric t = t.fabric
let engine t = Fabric.engine t.fabric
let retransmissions t = Metrics.Counter.get t.c_retransmissions
let backoffs t = Metrics.Counter.get t.c_backoff

let flow_rto fl ~retries =
  if retries = 0 then fl.rto_first else rto_after ~src:fl.f_src ~dst:fl.f_dst ~retries

let stats t =
  {
    frames = Metrics.Counter.get t.c_frames;
    payloads = Metrics.Counter.get t.c_payloads;
    retransmitted = Metrics.Counter.get t.c_retransmissions;
    piggybacked_acks = Metrics.Counter.get t.c_acks_piggybacked;
    standalone_acks = Metrics.Counter.get t.c_acks_standalone;
    mean_occupancy = Metrics.Histogram.mean t.h_occupancy;
    max_occupancy =
      (if Metrics.Histogram.count t.h_occupancy = 0 then 0.0
       else Metrics.Histogram.max t.h_occupancy);
  }

let set_handler t node fn = t.handlers.(node) <- Some fn

let deliver t ~dst ~src inner =
  match t.handlers.(dst) with Some fn -> fn ~src inner | None -> ()

(* Unacked seqs currently held by the sender. *)
let tx_window fl = fl.next_seq - 1 - fl.acked_upto

(* Grow the ring to hold the current window.  Entries keep their slot
   [seq land (cap - 1)], so doubling re-places every live seq. *)
let ring_grow fl =
  let cap = Array.length fl.ring in
  if tx_window fl > cap then begin
    let ncap = 2 * cap in
    let nring = Array.make ncap Ring_hole in
    let nsize = Array.make ncap 0 in
    let nenq = Array.make ncap 0.0 in
    for s = fl.acked_upto + 1 to fl.next_seq - 1 do
      nring.(s land (ncap - 1)) <- fl.ring.(s land (cap - 1));
      nsize.(s land (ncap - 1)) <- fl.ring_size.(s land (cap - 1));
      nenq.(s land (ncap - 1)) <- fl.ring_enq.(s land (cap - 1))
    done;
    fl.ring <- nring;
    fl.ring_size <- nsize;
    fl.ring_enq <- nenq
  end

(* Introspection for the property tests: bounded-state invariants. *)
let tx_backlog t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc fl -> acc + tx_window fl) acc row)
    0 t.flows

let rx_backlog t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc fl -> acc + Hashtbl.length fl.ooo + Hashtbl.length fl.seen_ahead)
        acc row)
    0 t.flows

(* ---------- timer plumbing ------------------------------------------------ *)
(* A timer field holds [Engine.no_event] when unarmed, and every callback
   resets its field first, so a later [cancel_*] never cancels an event
   that already fired.  The callbacks are built once, in [create]. *)

let cancel_node_flush t node =
  let ev = t.node_flush_ev.(node) in
  if ev <> Engine.no_event then begin
    Engine.cancel (engine t) ev;
    t.node_flush_ev.(node) <- Engine.no_event
  end

let cancel_rto t fl =
  if fl.rto_ev <> Engine.no_event then begin
    Engine.cancel (engine t) fl.rto_ev;
    fl.rto_ev <- Engine.no_event
  end

let cancel_dack t fl =
  if fl.dack_ev <> Engine.no_event then begin
    Engine.cancel (engine t) fl.dack_ev;
    fl.dack_ev <- Engine.no_event
  end

(* ---------- flow resets (crash, recover, sender give-up) ----------------- *)

(* Drop the sender side of a flow and start a fresh incarnation: the next
   message goes out as seq 0 of [tx_inc + 1], which the receiver adopts by
   resetting its window, so the new stream is never mistaken for duplicates
   of the old one. *)
let reset_tx t fl =
  cancel_rto t fl;
  Array.fill fl.ring 0 (Array.length fl.ring) Ring_hole;
  fl.tx_inc <- fl.tx_inc + 1;
  fl.next_seq <- 0;
  fl.acked_upto <- -1;
  fl.flushed_upto <- -1;
  fl.tx_retries <- 0

let clear_rx_window t fl =
  cancel_dack t fl;
  Hashtbl.reset fl.ooo;
  Hashtbl.reset fl.seen_ahead;
  fl.watermark <- -1;
  fl.ack_owed <- false

(* Receiver-side reset at a crash: also bump the accepted incarnation so
   frames of the dead incarnation still in flight are ignored rather than
   swallowing (or being swallowed by) the rejoined node's fresh seq 0.
   Crash resets bump both ends of a flow by one, so tx_inc and rx_inc stay
   in step; a sender give-up bumps tx_inc alone, which the receiver adopts
   on the first frame of the new incarnation ([inc > rx_inc]). *)
let reset_rx t fl =
  clear_rx_window t fl;
  fl.rx_inc <- fl.rx_inc + 1

let adopt_rx t fl inc =
  clear_rx_window t fl;
  fl.rx_inc <- inc

(* ---------- sender -------------------------------------------------------- *)

(* Pack seqs [lo..hi] of [fl] into frames of at most [max_batch] payloads,
   or of one payload each when unbatched, one frame per call, from [lo]
   up; top-level, so a call builds no closure.  Each frame piggybacks the
   freshest cumulative ack of the reverse flow, which discharges any owed
   standalone ack. *)
let rec send_window ~retx t fl ~lo ~hi =
  if lo <= hi then begin
    let rev = t.flows.(fl.f_dst).(fl.f_src) in
    let n = min (if t.config.batching then max_batch else 1) (hi - lo + 1) in
    let mask = Array.length fl.ring - 1 in
    (* Assemble the frame straight from the ring, back to front: one
       cons per payload, no intermediate list, no lookups. *)
    let items = ref [] in
    let size = ref batch_header_bytes in
    for s = lo + n - 1 downto lo do
      size := !size + fl.ring_size.(s land mask);
      items := fl.ring.(s land mask) :: !items
    done;
    let items = !items in
    let size = !size in
    let ack = rev.watermark in
    if rev.ack_owed then begin
      rev.ack_owed <- false;
      Metrics.Counter.incr t.c_acks_piggybacked;
      cancel_dack t rev
    end;
    Metrics.Counter.incr t.c_frames;
    (* [Counter.h] is an [int ref]: adding to it directly boxes no [?by]. *)
    t.c_payloads := !(t.c_payloads) + n;
    Metrics.Histogram.observe_int t.h_occupancy n;
    if Trace.enabled t.trace then begin
      (* Batch residency: oldest enqueue on this flow to frame send.
         pid = sending node, tid = destination (one track per flow). *)
      let stop = Engine.now (engine t) in
      let start = ref stop in
      for s = lo to lo + n - 1 do
        let enq = fl.ring_enq.(s land mask) in
        if enq < !start then start := enq
      done;
      let start = !start in
      Trace.complete t.trace ~cat:"transport" ~pid:fl.f_src ~tid:fl.f_dst
        ~start ~stop
        ~args:
          [
            ("dst", string_of_int fl.f_dst);
            ("payloads", string_of_int n);
            ("bytes", string_of_int size);
            ("first_seq", string_of_int lo);
            ("retx", if retx then "true" else "false");
          ]
        "batch"
    end;
    Fabric.send t.fabric ~src:fl.f_src ~dst:fl.f_dst ~size
      (Batch { inc = fl.tx_inc; first_seq = lo; items; ack; ack_inc = rev.rx_inc });
    send_window ~retx t fl ~lo:(lo + n) ~hi
  end

let on_rto t fl =
  fl.rto_ev <- Engine.no_event;
  if tx_window fl > 0 then begin
    let now = Engine.now (engine t) in
    let deadline = fl.rto_progress_at +. flow_rto fl ~retries:fl.tx_retries in
    if deadline > now +. 1e-9 then
      (* The window advanced since this timer was armed: push the timer out
         to the oldest-unacked deadline instead of retransmitting. *)
      fl.rto_ev <- Engine.schedule (engine t) ~after:(deadline -. now) fl.rto_fn
    else if
      not (Fabric.is_alive t.fabric fl.f_src && Fabric.is_alive t.fabric fl.f_dst)
    then
      (* A dead endpoint is the membership service's problem, not ours. *)
      reset_tx t fl
    else if fl.tx_retries >= max_retries then reset_tx t fl
    else begin
      (* Go-back-N: resend the whole unacked window as one burst (any
         not-yet-flushed tail included — it is leaving now anyway). *)
      fl.tx_retries <- fl.tx_retries + 1;
      let lo = fl.acked_upto + 1 and hi = fl.next_seq - 1 in
      t.c_retransmissions := !(t.c_retransmissions) + (hi - lo + 1);
      Metrics.Counter.incr t.c_backoff;
      send_window ~retx:true t fl ~lo ~hi;
      fl.flushed_upto <- hi;
      fl.rto_progress_at <- now;
      fl.rto_ev <-
        Engine.schedule (engine t) ~after:(flow_rto fl ~retries:fl.tx_retries) fl.rto_fn
    end
  end

let flush_flow t fl =
  let lo = fl.flushed_upto + 1 and hi = fl.next_seq - 1 in
  if lo <= hi then begin
    send_window ~retx:false t fl ~lo ~hi;
    fl.flushed_upto <- hi;
    if fl.rto_ev = Engine.no_event then begin
      fl.rto_progress_at <- Engine.now (engine t);
      fl.rto_ev <-
        Engine.schedule (engine t) ~after:(flow_rto fl ~retries:fl.tx_retries) fl.rto_fn
    end
  end

(* Newest first: the flush order fixes the frames' order on the fabric,
   and with it every run's event sequence. *)
let flush_node t node =
  let stack = t.dirty.(node) in
  while t.dirty_top.(node) > 0 do
    let i = t.dirty_top.(node) - 1 in
    t.dirty_top.(node) <- i;
    let fl = stack.(i) in
    fl.queued <- false;
    flush_flow t fl
  done

let on_node_flush t node =
  t.node_flush_ev.(node) <- Engine.no_event;
  flush_node t node

let schedule_node_flush t node ~after =
  cancel_node_flush t node;
  t.node_flush_ev.(node) <- Engine.schedule (engine t) ~after t.node_flush_fn.(node)

(* Batched, a payload waits on its node's dirty stack for the flush window
   or the doorbell; unbatched, its flow is flushed at once, so it leaves
   alone in its frame. *)
let send t ~src ~dst ~size payload =
  let fl = t.flows.(src).(dst) in
  let seq = fl.next_seq in
  fl.next_seq <- seq + 1;
  ring_grow fl;
  let i = seq land (Array.length fl.ring - 1) in
  fl.ring.(i) <- payload;
  fl.ring_size.(i) <- size;
  fl.ring_enq.(i) <- Engine.now (engine t);
  if not t.config.batching then flush_flow t fl
  else if not fl.queued then begin
    fl.queued <- true;
    let top = t.dirty_top.(src) in
    t.dirty.(src).(top) <- fl;
    t.dirty_top.(src) <- top + 1;
    if t.node_flush_ev.(src) = Engine.no_event then
      schedule_node_flush t src ~after:flush_window_us
  end

(* Doorbell: flush [node]'s unflushed frames at the end of the current
   instant instead of waiting out the flush window.  Everything enqueued at
   this timestamp (e.g. all sends of one protocol-handler activation) still
   coalesces, but no latency is added. *)
let flush t node =
  if t.node_flush_ev.(node) <> Engine.no_event then schedule_node_flush t node ~after:0.0

let apply_cum_ack t fl ~upto ~inc =
  if inc = fl.tx_inc && upto > fl.acked_upto then begin
    (* Advancing [acked_upto] abandons the acked ring slots in place; they
       are overwritten when their index comes around again. *)
    fl.acked_upto <- upto;
    if fl.flushed_upto < upto then fl.flushed_upto <- upto;
    fl.tx_retries <- 0;
    fl.rto_progress_at <- Engine.now (engine t);
    if tx_window fl = 0 then cancel_rto t fl
  end

(* ---------- receiver ------------------------------------------------------ *)

let rec drain_ooo t fl =
  match Hashtbl.find_opt fl.ooo (fl.watermark + 1) with
  | Some payload ->
    Hashtbl.remove fl.ooo (fl.watermark + 1);
    fl.watermark <- fl.watermark + 1;
    deliver t ~dst:fl.f_dst ~src:fl.f_src payload;
    drain_ooo t fl
  | None -> ()

let send_ack t fl =
  Metrics.Counter.incr t.c_acks_standalone;
  Fabric.send t.fabric ~src:fl.f_dst ~dst:fl.f_src ~size:ack_bytes
    (Ack_cum { upto = fl.watermark; inc = fl.rx_inc })

let on_dack t fl =
  fl.dack_ev <- Engine.no_event;
  if fl.ack_owed && Fabric.is_alive t.fabric fl.f_dst then begin
    fl.ack_owed <- false;
    send_ack t fl
  end

let schedule_dack t fl =
  if fl.dack_ev = Engine.no_event then
    fl.dack_ev <- Engine.schedule (engine t) ~after:delayed_ack_us fl.dack_fn

(* A frame's payloads, [seq] the first one's, walked in a loop: no closure
   per frame. *)
let rec receive_items t fl seq = function
  | [] -> ()
  | payload :: rest ->
    if
      seq <= fl.watermark || Hashtbl.mem fl.ooo seq
      || Hashtbl.mem fl.seen_ahead seq
    then ()  (* duplicate: a retransmitted window overlapping delivery *)
    else if seq = fl.watermark + 1 then begin
      fl.watermark <- seq;
      deliver t ~dst:fl.f_dst ~src:fl.f_src payload;
      if t.config.ordered then drain_ooo t fl
      else
        while Hashtbl.mem fl.seen_ahead (fl.watermark + 1) do
          Hashtbl.remove fl.seen_ahead (fl.watermark + 1);
          fl.watermark <- fl.watermark + 1
        done
    end
    else if t.config.ordered then begin
      if Hashtbl.length fl.ooo < max_ooo then
        (* Ahead of the watermark: hold for in-order delivery; go-back-N
           retransmission fills the gap.  Beyond [max_ooo] we drop and
           rely on the retransmitted window instead — receive-side state
           stays bounded no matter what the fault injection does. *)
        Hashtbl.replace fl.ooo seq payload
    end
    else begin
      (* Unordered mode: deliver ahead of the watermark immediately and
         remember the seq for dedup (bounded by the in-flight span); the
         cumulative ack still only covers the contiguous prefix, so
         go-back-N refills the gap and the [seen_ahead] check above
         swallows the resulting overlap. *)
      Hashtbl.replace fl.seen_ahead seq ();
      deliver t ~dst:fl.f_dst ~src:fl.f_src payload
    end;
    receive_items t fl (seq + 1) rest

let handle_batch t fl ~inc ~first_seq ~items =
  if inc >= fl.rx_inc then begin
    if inc > fl.rx_inc then adopt_rx t fl inc;
    receive_items t fl first_seq items;
    (* Any data frame earns an ack: fresh data to advance the cumulative
       ack, and a fully-duplicate frame means our previous ack was lost.
       Batched, the ack waits for reverse data to ride on; unbatched, it
       leaves at once. *)
    if t.config.batching then begin
      fl.ack_owed <- true;
      schedule_dack t fl
    end
    else send_ack t fl
  end

(* ---------- dispatch ------------------------------------------------------ *)

let handle t ~dst ~src payload =
  match payload with
  | Batch { inc; first_seq; items; ack; ack_inc } ->
    (* The piggybacked ack covers OUR data on the reverse flow dst->src. *)
    apply_cum_ack t t.flows.(dst).(src) ~upto:ack ~inc:ack_inc;
    handle_batch t t.flows.(src).(dst) ~inc ~first_seq ~items
  | Ack_cum { upto; inc } -> apply_cum_ack t t.flows.(dst).(src) ~upto ~inc
  | other -> deliver t ~dst ~src other

let create ?(config = default_config) ?telemetry fabric =
  let n = Fabric.nodes fabric in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let m = Hub.metrics hub in
  let t =
    {
      fabric;
      config;
      handlers = Array.make n None;
      flows = Array.init n (fun src -> Array.init n (fun dst -> fresh_flow ~src ~dst));
      dirty = Array.init n (fun _ -> Array.make n no_flow);
      dirty_top = Array.make n 0;
      node_flush_ev = Array.make n Engine.no_event;
      node_flush_fn = Array.make n ignore;
      c_retransmissions = Metrics.Counter.v m "transport.retransmissions";
      c_backoff = Metrics.Counter.v m "transport.backoff";
      c_frames = Metrics.Counter.v m "transport.frames";
      c_payloads = Metrics.Counter.v m "transport.payloads";
      c_acks_piggybacked = Metrics.Counter.v m "transport.acks_piggybacked";
      c_acks_standalone = Metrics.Counter.v m "transport.acks_standalone";
      h_occupancy = Metrics.Histogram.v m "transport.batch_occupancy";
      trace = Hub.trace hub;
    }
  in
  for node = 0 to n - 1 do
    t.node_flush_fn.(node) <- (fun () -> on_node_flush t node);
    Array.iter
      (fun fl ->
        fl.rto_fn <- (fun () -> on_rto t fl);
        fl.dack_fn <- (fun () -> on_dack t fl))
      t.flows.(node);
    Fabric.set_handler fabric node (fun ~src payload -> handle t ~dst:node ~src payload)
  done;
  t

let send_unreliable t ~src ~dst ~size payload =
  Fabric.send t.fabric ~src ~dst ~size payload

(* Crash cleanup is symmetric: the crashed node's own send windows AND
   receive windows die with it, its peers stop retransmitting into the
   void, and the peers' receive windows for the dead node's flows are
   reset with an incarnation bump — so when the node rejoins as a fresh
   incarnation restarting at seq 0, nothing is swallowed as a duplicate
   and no straggler of the old incarnation is accepted. *)
let drop_queued_flush t node =
  cancel_node_flush t node;
  for i = 0 to t.dirty_top.(node) - 1 do
    t.dirty.(node).(i).queued <- false
  done;
  t.dirty_top.(node) <- 0

let crash t node =
  Fabric.crash t.fabric node;
  drop_queued_flush t node;
  let n = Fabric.nodes t.fabric in
  for peer = 0 to n - 1 do
    reset_tx t t.flows.(node).(peer);
    reset_rx t t.flows.(node).(peer);
    reset_tx t t.flows.(peer).(node);
    reset_rx t t.flows.(peer).(node)
  done

let recover t node =
  Fabric.recover t.fabric node;
  drop_queued_flush t node;
  let n = Fabric.nodes t.fabric in
  for peer = 0 to n - 1 do
    (* Anything enqueued while dead belongs to the dead incarnation. *)
    reset_tx t t.flows.(node).(peer);
    (* Come back with empty receive windows, keeping the accepted
       incarnation: peers legitimately retransmit their post-crash sends
       once we are back, and those must not be dropped as stale. *)
    clear_rx_window t t.flows.(peer).(node)
  done
