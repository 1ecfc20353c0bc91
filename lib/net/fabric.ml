module Engine = Zeus_sim.Engine
module Fifo = Zeus_sim.Fifo
module Rng = Zeus_sim.Rng

type config = {
  base_latency_us : float;
  jitter_us : float;
  bandwidth_gbps : float;
  loss_prob : float;
  dup_prob : float;
  delay_prob : float;
  delay_extra_us : float;
  permute_prob : float;
}

let default_config =
  {
    base_latency_us = 4.0;
    jitter_us = 0.3;
    bandwidth_gbps = 40.0;
    loss_prob = 0.0;
    dup_prob = 0.0;
    delay_prob = 0.0;
    delay_extra_us = 10.0;
    permute_prob = 0.0;
  }

type perturb = { p_loss : float; p_dup : float; p_delay_us : float }

(* A message in flight.  The fabric pools these records, each with its
   [fire] closure built once, so a send allocates nothing to be scheduled
   and delivered; a duplicate takes a record of its own. *)
type Msg.payload += No_flight

type flight = {
  mutable src : Msg.node_id;
  mutable dst : Msg.node_id;
  mutable payload : Msg.payload;
  fire : unit -> unit;
}

let no_flight = { src = -1; dst = -1; payload = No_flight; fire = ignore }

type t = {
  engine : Engine.t;
  nodes : int;
  config : config;
  rng : Rng.t;
  handlers : (src:Msg.node_id -> Msg.payload -> unit) option array;
  alive : bool array;
  partitioned : bool array;
      (* by directed link [src * nodes + dst]; a symmetric partition sets
         both directions, so a delivery tests one cell of each array and
         builds no key *)
  oneway : bool array;  (* directed src->dst drops, by link as above *)
  mutable perturb : perturb option;
  mutable scramble : float;  (* runtime add-on to [permute_prob] (nemesis) *)
  slow : float array;  (* per-node latency multiplier ("gray" degradation) *)
  last_arrival : float array;
      (* per directed link, the latest absolute arrival time scheduled so
         far — the permutation target: an overtaking message lands before
         it.  Maintained unconditionally (no rng cost) so a nemesis can
         arm scrambling mid-run against a warm horizon. *)
  spare : flight Fifo.t;  (* in-flight records free for reuse *)
  mutable flights : int;  (* in-flight records made so far *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;
  mutable messages_duplicated : int;
}

let validate_config c =
  let prob name p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      invalid_arg (Printf.sprintf "Fabric.create: %s = %g not in [0, 1]" name p)
  in
  let non_neg name v =
    if v < 0.0 || Float.is_nan v then
      invalid_arg (Printf.sprintf "Fabric.create: %s = %g is negative" name v)
  in
  prob "loss_prob" c.loss_prob;
  prob "dup_prob" c.dup_prob;
  prob "delay_prob" c.delay_prob;
  prob "permute_prob" c.permute_prob;
  non_neg "base_latency_us" c.base_latency_us;
  non_neg "jitter_us" c.jitter_us;
  non_neg "delay_extra_us" c.delay_extra_us;
  if c.bandwidth_gbps <= 0.0 || Float.is_nan c.bandwidth_gbps then
    invalid_arg
      (Printf.sprintf "Fabric.create: bandwidth_gbps = %g not positive"
         c.bandwidth_gbps)

let create engine ~nodes config =
  if nodes <= 0 then invalid_arg "Fabric.create: nodes <= 0";
  validate_config config;
  {
    engine;
    nodes;
    config;
    rng = Engine.fork_rng engine;
    handlers = Array.make nodes None;
    alive = Array.make nodes true;
    partitioned = Array.make (nodes * nodes) false;
    oneway = Array.make (nodes * nodes) false;
    perturb = None;
    scramble = 0.0;
    slow = Array.make nodes 1.0;
    last_arrival = Array.make (nodes * nodes) neg_infinity;
    spare = Fifo.create ~dummy:no_flight;
    flights = 0;
    messages_sent = 0;
    bytes_sent = 0;
    messages_dropped = 0;
    messages_duplicated = 0;
  }

let engine t = t.engine
let nodes t = t.nodes
let config t = t.config
let set_handler t node fn = t.handlers.(node) <- Some fn
let is_alive t node = t.alive.(node)

let crash t node = t.alive.(node) <- false
let recover t node = t.alive.(node) <- true

let link t ~src ~dst = (src * t.nodes) + dst

let set_partition t a b cut =
  t.partitioned.(link t ~src:a ~dst:b) <- cut;
  t.partitioned.(link t ~src:b ~dst:a) <- cut

let partition t a b = set_partition t a b true
let heal t a b = set_partition t a b false
let partition_oneway t ~src ~dst = t.oneway.(link t ~src ~dst) <- true
let heal_oneway t ~src ~dst = t.oneway.(link t ~src ~dst) <- false

let heal_all t =
  Array.fill t.partitioned 0 (Array.length t.partitioned) false;
  Array.fill t.oneway 0 (Array.length t.oneway) false

let blocked t ~src ~dst =
  let i = link t ~src ~dst in
  t.partitioned.(i) || t.oneway.(i)

let set_perturb t p = t.perturb <- p

let set_scramble t p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg (Printf.sprintf "Fabric.set_scramble: %g not in [0, 1]" p);
  t.scramble <- p

let scramble t = t.scramble
let set_slow t node factor = t.slow.(node) <- Float.max factor 1.0
let slow_factor t node = t.slow.(node)

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.messages_dropped
let messages_duplicated t = t.messages_duplicated
let flight_records t = t.flights

let reset_counters t =
  t.messages_sent <- 0;
  t.bytes_sent <- 0;
  t.messages_dropped <- 0;
  t.messages_duplicated <- 0

let deliver t ~src ~dst payload =
  (* Checked at arrival time: a node that crashed in flight drops the
     message, matching a NIC going dark. *)
  if t.alive.(dst) && not (blocked t ~src ~dst) then begin
    match t.handlers.(dst) with
    | Some fn -> fn ~src payload
    | None -> ()
  end
  else t.messages_dropped <- t.messages_dropped + 1

(* [Rng.float] and [Rng.chance] on the fabric's stream, written out (see
   [Rng.bits53]) so that neither the bound nor the draw is boxed to cross
   into [Rng]: that was 2 words per argument and per result, several
   times per message. *)
let[@inline] draw t bound = bound *. (float_of_int (Rng.bits53 t.rng) /. 9007199254740992.0)
let[@inline] chance t p = draw t 1.0 < p

let[@inline] latency t ~src ~dst ~size =
  let c = t.config in
  let serialize =
    (* bytes -> µs at [bandwidth] Gbps: size * 8 bits / (gbps * 1000 bits/µs) *)
    float_of_int size *. 8.0 /. (c.bandwidth_gbps *. 1000.0)
  in
  (* A slow ("gray") endpoint stretches every message it touches; the
     spike's extra delay is a link-level add-on. *)
  let gray = Float.max t.slow.(src) t.slow.(dst) in
  let spike = match t.perturb with Some p -> p.p_delay_us | None -> 0.0 in
  ((c.base_latency_us +. serialize) *. gray)
  +. spike
  +. draw t c.jitter_us

(* Effective fault probabilities: static config plus the active spike.  The
   rng draw count is independent of whether a spike is active, so arming a
   chaos schedule never perturbs the random sequence of an otherwise
   identical run before the first fault fires. *)
let[@inline] eff_loss t = match t.perturb with
  | Some p -> Float.min 1.0 (t.config.loss_prob +. p.p_loss)
  | None -> t.config.loss_prob

let[@inline] eff_dup t = match t.perturb with
  | Some p -> Float.min 1.0 (t.config.dup_prob +. p.p_dup)
  | None -> t.config.dup_prob

let[@inline] eff_permute t = Float.min 1.0 (t.config.permute_prob +. t.scramble)

(* Record the latest scheduled arrival on a directed link; returns the
   absolute arrival time.  Pure float bookkeeping — no rng draw, so
   tracking while permutation is disabled never perturbs a run. *)
let[@inline] note_arrival t ~src ~dst ~now ~after =
  let i = (src * t.nodes) + dst in
  let abs = now +. after in
  if abs > t.last_arrival.(i) then t.last_arrival.(i) <- abs

(* The record is read and back in the pool before [deliver] runs, so a
   send made from inside the handler may take this very record. *)
let fire t fl =
  let src = fl.src and dst = fl.dst and payload = fl.payload in
  fl.payload <- No_flight;
  Fifo.push t.spare fl;
  deliver t ~src ~dst payload

let new_flight t =
  t.flights <- t.flights + 1;
  let rec fl = { src = -1; dst = -1; payload = No_flight; fire = (fun () -> fire t fl) } in
  fl

let launch t ~src ~dst ~after payload =
  let fl = if Fifo.is_empty t.spare then new_flight t else Fifo.pop t.spare in
  fl.src <- src;
  fl.dst <- dst;
  fl.payload <- payload;
  ignore (Engine.schedule t.engine ~after fl.fire)

let send t ~src ~dst ~size payload =
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + size;
  if not t.alive.(src) then t.messages_dropped <- t.messages_dropped + 1
  else if src = dst then
    launch t ~src ~dst ~after:0.05 payload
  else begin
    let c = t.config in
    if chance t (eff_loss t) then t.messages_dropped <- t.messages_dropped + 1
    else begin
      let now = Engine.now t.engine in
      let base = latency t ~src ~dst ~size in
      let extra =
        if chance t c.delay_prob then draw t c.delay_extra_us
        else 0.0
      in
      let arrival = base +. extra in
      (* True permutation: with probability [eff_permute], land this
         message {e before} the latest in-flight one on the link (uniform
         inside the in-flight horizon) instead of behind it.  Unlike the
         [delay_prob] straggler — which an ordered transport's OOO window
         re-orders away — this genuinely swaps delivery order.  Guarded so
         a disabled knob costs no rng draw. *)
      let arrival =
        let p = eff_permute t in
        if p > 0.0 && chance t p then begin
          let horizon = t.last_arrival.((src * t.nodes) + dst) -. now in
          if horizon > 1e-9 then draw t horizon else arrival
        end
        else arrival
      in
      note_arrival t ~src ~dst ~now ~after:arrival;
      launch t ~src ~dst ~after:arrival payload;
      if chance t (eff_dup t) then begin
        let dup_arrival = latency t ~src ~dst ~size +. draw t c.delay_extra_us in
        note_arrival t ~src ~dst ~now ~after:dup_arrival;
        t.messages_duplicated <- t.messages_duplicated + 1;
        launch t ~src ~dst ~after:dup_arrival payload
      end
    end
  end
