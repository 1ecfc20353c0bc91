(* A job in service lives in its server's slots ([service], [conts]) and
   completes through that server's closure, built once at [create]: a job
   that finds a server idle allocates nothing here.  A job that has to
   wait takes the next cell of a ring of reusable cells, so it allocates
   nothing either.  A cell keeps the caller's boxed service time as is: a
   flat float ring would box it again at dequeue, to hand it to the
   engine. *)

type cell = { mutable c_service : float; mutable c_k : unit -> unit }

let no_k () = ()
let new_cell () = { c_service = 0.0; c_k = no_k }

(* A record of floats alone is stored flat: accumulating boxes nothing. *)
type clock = { mutable busy_time : float }

type t = {
  engine : Engine.t;
  servers : int;
  mutable busy : int;
  clock : clock;
  mutable completed : int;
  mutable waiting : cell array;  (* FIFO ring, length a power of two *)
  mutable w_head : int;
  mutable w_len : int;
  service : float array;  (* by server: the service time of its job *)
  conts : (unit -> unit) array;  (* by server: its job's continuation *)
  idle : int array;  (* the idle servers: the first [servers - busy] *)
  mutable completions : (unit -> unit) array;  (* by server *)
}

let servers t = t.servers
let busy t = t.busy
let queue_length t = t.w_len
let busy_time t = t.clock.busy_time
let completed t = t.completed

(* [service] is the caller's boxed float, handed to the engine as is; the
   engine clamps a negative delay to zero, as the slot does here. *)
let start t ~service k =
  t.busy <- t.busy + 1;
  let s = t.idle.(t.servers - t.busy) in
  t.service.(s) <- (if service < 0.0 then 0.0 else service);
  t.conts.(s) <- k;
  ignore (Engine.schedule t.engine ~after:service t.completions.(s))

let complete t s () =
  let k = t.conts.(s) in
  t.conts.(s) <- no_k;
  t.idle.(t.servers - t.busy) <- s;
  t.busy <- t.busy - 1;
  t.clock.busy_time <- t.clock.busy_time +. t.service.(s);
  t.completed <- t.completed + 1;
  k ();
  (* The completion may have enqueued more work; drain if idle capacity. *)
  if t.busy < t.servers && t.w_len > 0 then begin
    let c = t.waiting.(t.w_head) in
    let service = c.c_service and k = c.c_k in
    (* A served job must not stay reachable from its cell: a young value
       an old cell still held would be promoted. *)
    c.c_service <- 0.0;
    c.c_k <- no_k;
    t.w_head <- (t.w_head + 1) land (Array.length t.waiting - 1);
    t.w_len <- t.w_len - 1;
    start t ~service k
  end

let create engine ~servers =
  assert (servers > 0);
  let t =
    {
      engine;
      servers;
      busy = 0;
      clock = { busy_time = 0.0 };
      completed = 0;
      waiting = Array.init 16 (fun _ -> new_cell ());
      w_head = 0;
      w_len = 0;
      service = Array.make servers 0.0;
      conts = Array.make servers no_k;
      idle = Array.init servers (fun s -> s);
      completions = [||];
    }
  in
  t.completions <- Array.init servers (fun s -> complete t s);
  t

(* Double the ring, unrolling it so the head lands at slot 0. *)
let grow t =
  let cap = Array.length t.waiting in
  let old = t.waiting in
  t.waiting <-
    Array.init (2 * cap) (fun i ->
        if i < cap then old.((t.w_head + i) land (cap - 1)) else new_cell ());
  t.w_head <- 0

let submit t ~service k =
  if t.busy < t.servers then start t ~service k
  else begin
    if t.w_len = Array.length t.waiting then grow t;
    let c = t.waiting.((t.w_head + t.w_len) land (Array.length t.waiting - 1)) in
    c.c_service <- service;
    c.c_k <- k;
    t.w_len <- t.w_len + 1
  end
