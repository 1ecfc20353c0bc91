(* Monomorphic, pooled event core.

   A generic closure-based heap of boxed event records (the engine's first
   queue) paid an indirect [leq] call per comparison, a 5-word allocation
   per scheduled event, and kept cancelled transport timers (RTO,
   delayed-ack) in the queue until they surfaced.  This engine instead
   keeps:

   - an {e event slab}: parallel arrays [e_fn]/[e_gen] indexed by slot,
     recycled through a free-slot stack;
   - a {e heap} of parallel arrays [h_time]/[h_seq]/[h_id] with the
     [(time, seq)] comparison inlined (no closure, no boxing);
   - {e generation-tagged ids}: an [event_id] packs (slot, generation);
     cancel and dispatch bump the slot's generation, so a heap entry is
     live iff its packed generation still matches — reusing a slot can
     never resurrect a stale handle (ABA safety);
   - {e eager compaction}: cancelled entries are counted and, once they
     outnumber half the heap (past a 64-entry floor), filtered out in one
     pass followed by a Floyd build-heap, so timer churn cannot inflate
     the heap's depth.

   Steady-state scheduling allocates nothing: the event time stays
   unboxed from [schedule]/[schedule_at] down to the heap's float array,
   because [push] and the heap helpers under it are inlined (keep them in
   this module: the dev profile compiles with [-opaque], so nothing is
   inlined across modules).  A caller that computes its delay still boxes
   that float (2 words) to pass it, and a dispatch boxes the new clock
   (2 words) only when the event's time differs from the current one.
   The caller's closure is the caller's: prebuild it to schedule for free. *)

let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1
let ignore_fn () = ()

type event_id = int

let no_event = -1

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable live : int;
  mutable dispatched : int;
  (* event slab, indexed by slot *)
  mutable e_fn : (unit -> unit) array;
  mutable e_gen : int array;
  mutable free : int array;  (* free-slot stack *)
  mutable free_top : int;
  mutable slab_next : int;  (* next never-used slot *)
  (* binary min-heap on (time, seq), parallel arrays *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_id : int array;
  mutable h_size : int;
  mutable stale : int;  (* cancelled entries still in the heap *)
  root_rng : Rng.t;
}

let create ?(seed = 42L) () =
  {
    clock = 0.0;
    seq = 0;
    live = 0;
    dispatched = 0;
    e_fn = Array.make 256 ignore_fn;
    e_gen = Array.make 256 0;
    free = Array.make 256 0;
    free_top = 0;
    slab_next = 0;
    h_time = Array.make 256 0.0;
    h_seq = Array.make 256 0;
    h_id = Array.make 256 0;
    h_size = 0;
    stale = 0;
    root_rng = Rng.create seed;
  }

let now t = t.clock
let rng t = t.root_rng
let fork_rng t = Rng.split t.root_rng
let pending t = t.live
let events_dispatched t = t.dispatched

(* ---- slab ---- *)

let alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    let cap = Array.length t.e_fn in
    if t.slab_next = cap then begin
      let ncap = 2 * cap in
      let nfn = Array.make ncap ignore_fn in
      Array.blit t.e_fn 0 nfn 0 cap;
      t.e_fn <- nfn;
      let ngen = Array.make ncap 0 in
      Array.blit t.e_gen 0 ngen 0 cap;
      t.e_gen <- ngen;
      let nfree = Array.make ncap 0 in
      Array.blit t.free 0 nfree 0 t.free_top;
      t.free <- nfree
    end;
    let s = t.slab_next in
    t.slab_next <- s + 1;
    s
  end

let free_slot t s =
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

(* Bump the generation and release the slot: any packed id minted for the
   old generation is stale from here on. *)
let retire_slot t s =
  t.e_gen.(s) <- (t.e_gen.(s) + 1) land gen_mask;
  t.e_fn.(s) <- ignore_fn;
  free_slot t s

let id_live t id = t.e_gen.(id land slot_mask) = id lsr slot_bits

(* ---- heap ---- *)

(* Hole-style sift: carry the inserted element in locals, shift entries
   into the hole, write the element once at its final position. *)
let[@inline] sift_up t i0 time seq id =
  let i = ref i0 and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.h_time.(p) in
    if pt < time || (pt = time && t.h_seq.(p) < seq) then moving := false
    else begin
      t.h_time.(!i) <- pt;
      t.h_seq.(!i) <- t.h_seq.(p);
      t.h_id.(!i) <- t.h_id.(p);
      i := p
    end
  done;
  t.h_time.(!i) <- time;
  t.h_seq.(!i) <- seq;
  t.h_id.(!i) <- id

let[@inline] sift_down t i0 time seq id =
  let n = t.h_size in
  let i = ref i0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (t.h_time.(r) < t.h_time.(l)
             || (t.h_time.(r) = t.h_time.(l) && t.h_seq.(r) < t.h_seq.(l)))
        then r
        else l
      in
      let ct = t.h_time.(c) in
      if ct < time || (ct = time && t.h_seq.(c) < seq) then begin
        t.h_time.(!i) <- ct;
        t.h_seq.(!i) <- t.h_seq.(c);
        t.h_id.(!i) <- t.h_id.(c);
        i := c
      end
      else moving := false
    end
  done;
  t.h_time.(!i) <- time;
  t.h_seq.(!i) <- seq;
  t.h_id.(!i) <- id

let[@inline] heap_push t time seq id =
  let cap = Array.length t.h_time in
  if t.h_size = cap then begin
    let ncap = 2 * cap in
    let ntime = Array.make ncap 0.0 in
    Array.blit t.h_time 0 ntime 0 cap;
    t.h_time <- ntime;
    let nseq = Array.make ncap 0 in
    Array.blit t.h_seq 0 nseq 0 cap;
    t.h_seq <- nseq;
    let nid = Array.make ncap 0 in
    Array.blit t.h_id 0 nid 0 cap;
    t.h_id <- nid
  end;
  let i = t.h_size in
  t.h_size <- i + 1;
  sift_up t i time seq id

let remove_min t =
  let n = t.h_size - 1 in
  t.h_size <- n;
  if n > 0 then sift_down t 0 t.h_time.(n) t.h_seq.(n) t.h_id.(n)

(* Drop every stale entry in one pass, then Floyd build-heap over the
   survivors: O(n) total, amortized O(1) per cancelled timer. *)
let compact t =
  let n = t.h_size in
  let w = ref 0 in
  for r = 0 to n - 1 do
    let id = t.h_id.(r) in
    if id_live t id then begin
      t.h_time.(!w) <- t.h_time.(r);
      t.h_seq.(!w) <- t.h_seq.(r);
      t.h_id.(!w) <- id;
      incr w
    end
  done;
  t.h_size <- !w;
  t.stale <- 0;
  for i = (!w / 2) - 1 downto 0 do
    sift_down t i t.h_time.(i) t.h_seq.(i) t.h_id.(i)
  done

(* ---- scheduling ---- *)

let[@inline] push t time fn =
  let slot = alloc_slot t in
  t.e_fn.(slot) <- fn;
  let id = (t.e_gen.(slot) lsl slot_bits) lor slot in
  let seq = t.seq in
  t.seq <- seq + 1;
  t.live <- t.live + 1;
  heap_push t time seq id;
  id

let schedule_at t ~time fn =
  let now = t.clock in
  push t (if time < now then now else time) fn

let schedule t ~after fn =
  push t (t.clock +. if after < 0.0 then 0.0 else after) fn

let cancel t id =
  let slot = id land slot_mask in
  if slot < Array.length t.e_gen && t.e_gen.(slot) = id lsr slot_bits then begin
    retire_slot t slot;
    t.live <- t.live - 1;
    t.stale <- t.stale + 1;
    if t.stale > 64 && 2 * t.stale > t.h_size then compact t
  end

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let stop = ref false in
  while not !stop do
    if t.h_size = 0 then stop := true
    else begin
      let id = t.h_id.(0) in
      if not (id_live t id) then begin
        (* Stale top: drain it whatever the deadline or budget, exactly
           as the old engine skipped cancelled records at pop. *)
        remove_min t;
        t.stale <- t.stale - 1
      end
      else begin
        let time = t.h_time.(0) in
        let past_deadline =
          match until with Some u -> time > u | None -> false
        in
        if past_deadline || !budget <= 0 then stop := true
        else begin
          let slot = id land slot_mask in
          let fn = t.e_fn.(slot) in
          retire_slot t slot;
          remove_min t;
          t.live <- t.live - 1;
          (* Storing the clock boxes it: skip the store when the time has
             not moved, as for every event after the first at an instant. *)
          if time <> t.clock then t.clock <- time;
          t.dispatched <- t.dispatched + 1;
          decr budget;
          fn ()
        end
      end
    end
  done;
  (* Live events remain iff the heap still holds a non-stale entry; stale
     leftovers alone never hold the clock back from the bound. *)
  match until with
  | Some u when t.clock < u && t.live > 0 -> t.clock <- u
  | _ -> ()
