type job = { service : float; k : unit -> unit }

let no_job = { service = 0.0; k = (fun () -> ()) }

type t = {
  engine : Engine.t;
  servers : int;
  mutable busy : int;
  mutable busy_time : float;
  mutable completed : int;
  waiting : job Fifo.t;
}

let create engine ~servers =
  assert (servers > 0);
  {
    engine;
    servers;
    busy = 0;
    busy_time = 0.0;
    completed = 0;
    waiting = Fifo.create ~dummy:no_job;
  }

let servers t = t.servers
let busy t = t.busy
let queue_length t = Fifo.length t.waiting
let busy_time t = t.busy_time
let completed t = t.completed

let rec start t job =
  t.busy <- t.busy + 1;
  ignore
    (Engine.schedule t.engine ~after:job.service (fun () ->
         t.busy <- t.busy - 1;
         t.busy_time <- t.busy_time +. job.service;
         t.completed <- t.completed + 1;
         job.k ();
         (* The completion may have enqueued more work; drain if idle capacity. *)
         if t.busy < t.servers && not (Fifo.is_empty t.waiting) then
           start t (Fifo.pop t.waiting)))

let submit t ~service k =
  let job = { service = (if service < 0.0 then 0.0 else service); k } in
  if t.busy < t.servers then start t job else Fifo.push t.waiting job
