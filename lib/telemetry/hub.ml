type t = { metrics : Metrics.t; trace : Trace.t }

let create ?(tracing = false) ?max_spans ~now () =
  { metrics = Metrics.create (); trace = Trace.create ~enabled:tracing ?max_spans ~now () }

let none () =
  { metrics = Metrics.create (); trace = Trace.create ~now:(fun () -> 0.0) () }

let metrics t = t.metrics
let trace t = t.trace
let tracing t = Trace.enabled t.trace
