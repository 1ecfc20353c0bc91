module Stats = Zeus_sim.Stats
module Rng = Zeus_sim.Rng

type t = {
  counters : Stats.Counter.t;
  mutable hists : (string * hist) list;  (* registration order, newest first *)
  rng : Rng.t;
}

and hist = {
  h_name : string;
  summary : Stats.Summary.t;
  samples : Stats.Samples.t;  (* reservoir: exact percentiles, reused code *)
}

let seed = 0x7e1eL
let create () = { counters = Stats.Counter.create (); hists = []; rng = Rng.create seed }
let counters t = Stats.Counter.to_list t.counters
let histograms t = List.rev t.hists

module Counter = struct
  type h = int ref

  (* The handle *is* the [Stats.Counter] storage cell: the hashtable
     lookup happens once here, call sites touch the ref directly and a
     misspelt metric is an unbound OCaml identifier, not a new counter. *)
  let v t name = Stats.Counter.cell t.counters name
  let incr ?(by = 1) c = c := !c + by
  let get c = !c
end

module Histogram = struct
  type h = hist

  let make ~rng name =
    { h_name = name; summary = Stats.Summary.create (); samples = Stats.Samples.create rng }

  (* Standalone (unregistered) histogram, e.g. one per workload run. *)
  let create name = make ~rng:(Rng.create seed) name

  let v t name =
    match List.assoc_opt name t.hists with
    | Some h -> h
    | None ->
      let h = make ~rng:t.rng name in
      t.hists <- (name, h) :: t.hists;
      h

  let observe h x =
    (* NaN: never poison the distribution *)
    if not (Float.is_nan x) then begin
      Stats.Summary.add h.summary x;
      Stats.Samples.add h.samples x
    end

  let observe_span h ~start ~stop =
    if not (Float.is_nan (stop -. start)) then begin
      Stats.Summary.add_span h.summary ~start ~stop;
      Stats.Samples.add_span h.samples ~start ~stop
    end

  (* An int is never NaN. *)
  let observe_int h n =
    Stats.Summary.add_int h.summary n;
    Stats.Samples.add_int h.samples n

  let name h = h.h_name
  let count h = Stats.Summary.count h.summary
  let sum h = Stats.Summary.total h.summary
  let mean h = Stats.Summary.mean h.summary
  let min h = Stats.Summary.min h.summary
  let max h = Stats.Summary.max h.summary
  let percentile h p = Stats.Samples.percentile h.samples p
end
