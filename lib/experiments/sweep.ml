(** Domain-parallel map over independent sweep points (DESIGN.md §12).

    Every sweep point in this directory builds its own {!Zeus_core.Cluster}
    — engine, clock, RNG streams, telemetry hub — from a seed fixed by the
    experiment, so two points share no mutable state and a point's result
    is a pure function of its parameters.  That makes the sweep
    embarrassingly parallel: [map f points] farms the points out to one
    domain per core, at most [max_default_jobs], and returns the results
    in input order, bit-identical to a sequential run whatever the job
    count.

    Two rules keep that true (enforced by convention, asserted by the
    [jobs:1] vs [jobs:4] determinism test):

    - point functions must not touch cross-point mutable state: whatever
      a printer needs from a point (a cluster for the phase table, say)
      travels back in the point's result;
    - point functions must not print — {!Tlog} writes straight to the
      process-wide stdout/stderr, so table rendering stays in the
      sequential caller. *)

(* [recommended_domain_count] counts the cores the process may run on
   (it follows CPU affinity, not a CFS quota).  The cap bounds memory:
   full-scale fig8 peaks at 1.7 GB RSS on one domain and at 3.5 GB on
   two or four, and more domains than that are unmeasured. *)
let max_default_jobs = 4

let map ?(jobs = min max_default_jobs (Domain.recommended_domain_count ())) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let j = min jobs n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f items.(i));
        worker ()
      end
    in
    (* The calling domain is one of the workers: [j] jobs means [j - 1]
       spawned domains plus this one. *)
    let spawned = Array.init (j - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end
