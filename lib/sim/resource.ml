(* A job in service lives in its server's slots ([service], [conts]) and
   completes through that server's closure, built once at [create]: a job
   that finds a server idle allocates nothing here.  Only a job that has to
   wait keeps a record, in the FIFO. *)

type job = { service : float; k : unit -> unit }

let no_k () = ()
let no_job = { service = 0.0; k = no_k }

(* A record of floats alone is stored flat: accumulating boxes nothing. *)
type clock = { mutable busy_time : float }

type t = {
  engine : Engine.t;
  servers : int;
  mutable busy : int;
  clock : clock;
  mutable completed : int;
  waiting : job Fifo.t;
  service : float array;  (* by server: the service time of its job *)
  conts : (unit -> unit) array;  (* by server: its job's continuation *)
  idle : int array;  (* the idle servers: the first [servers - busy] *)
  mutable completions : (unit -> unit) array;  (* by server *)
}

let servers t = t.servers
let busy t = t.busy
let queue_length t = Fifo.length t.waiting
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
  if t.busy < t.servers && not (Fifo.is_empty t.waiting) then begin
    let job = Fifo.pop t.waiting in
    start t ~service:job.service job.k
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
      waiting = Fifo.create ~dummy:no_job;
      service = Array.make servers 0.0;
      conts = Array.make servers no_k;
      idle = Array.init servers (fun s -> s);
      completions = [||];
    }
  in
  t.completions <- Array.init servers (fun s -> complete t s);
  t

let submit t ~service k =
  if t.busy < t.servers then start t ~service k else Fifo.push t.waiting { service; k }
