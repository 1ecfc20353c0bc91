(** Domain-parallel map over independent sweep points (DESIGN.md §12).

    Every sweep point in this directory builds its own {!Zeus_core.Cluster}
    — engine, clock, RNG streams, telemetry hub — from a seed fixed by the
    experiment, so two points share no mutable state and a point's result
    is a pure function of its parameters.  That makes the sweep
    embarrassingly parallel: [map f points] farms the points out to
    [jobs ()] domains and returns the results in input order, bit-identical
    to a sequential run whatever the job count.

    Two rules keep that true (enforced by convention, asserted by the
    [-j 1] vs [-j N] determinism test):

    - point functions must not touch cross-point mutable state: whatever
      a printer needs from a point (a cluster for the phase table, say)
      travels back in the point's result;
    - point functions must not print — {!Tlog} writes straight to the
      process-wide stdout/stderr, so table rendering stays in the
      sequential caller. *)

(* Process-wide default, set once by the CLI's [-j] flag before any
   experiment runs; individual maps can override. *)
let jobs = ref 1

let set_jobs n = jobs := max 1 n
let get_jobs () = !jobs

let map ?jobs:override f xs =
  let j = match override with Some j -> j | None -> !jobs in
  let items = Array.of_list xs in
  let n = Array.length items in
  if j <= 1 || n <= 1 then List.map f xs
  else begin
    let j = min j n in
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
