module Engine = Zeus_sim.Engine
module Rng = Zeus_sim.Rng

module Generator = struct
  type t = {
    engine : Engine.t;
    rate : float;
    sink : seq:int -> unit;
    rng : Rng.t;
    mutable running : bool;
    mutable arrivals : int;
  }

  let create engine ~rate_per_us ~sink =
    {
      engine;
      rate = rate_per_us;
      sink;
      rng = Engine.fork_rng engine;
      running = false;
      arrivals = 0;
    }

  let rec arrive t =
    if t.running then begin
      let gap = Rng.exponential t.rng ~mean:(1.0 /. t.rate) in
      ignore
        (Engine.schedule t.engine ~after:gap (fun () ->
             if t.running then begin
               t.arrivals <- t.arrivals + 1;
               t.sink ~seq:t.arrivals;
               arrive t
             end))
    end

  let start t =
    if not t.running then begin
      t.running <- true;
      arrive t
    end

  let stop t = t.running <- false
  let arrivals t = t.arrivals
end

module Worker = struct
  type t = {
    engine : Engine.t;
    serve : int -> (unit -> unit) -> unit;
    queue : int Zeus_sim.Fifo.t;
    mutable busy : bool;
    mutable completed : int;
  }

  let create engine ~serve =
    { engine; serve; queue = Zeus_sim.Fifo.create ~dummy:0; busy = false; completed = 0 }

  let rec next t =
    if Zeus_sim.Fifo.is_empty t.queue then t.busy <- false
    else begin
      let req = Zeus_sim.Fifo.pop t.queue in
      t.serve req (fun () ->
          t.completed <- t.completed + 1;
          next t)
    end

  let push t req =
    Zeus_sim.Fifo.push t.queue req;
    if not t.busy then begin
      t.busy <- true;
      next t
    end

  let completed t = t.completed
  let queue_length t = Zeus_sim.Fifo.length t.queue
end
