let percentile_of_sorted a p =
  (* NaN-safe: with [Float.compare] ordering, NaNs sort before every real
     number, so skipping the NaN prefix leaves a clean ascending range. *)
  let len = Array.length a in
  let first = ref 0 in
  while !first < len && Float.is_nan a.(!first) do incr first done;
  let base = !first in
  let n = len - base in
  let p = if Float.is_nan p then 50.0 else Float.max 0.0 (Float.min 100.0 p) in
  if n = 0 then nan
  else if n = 1 then a.(base)
  else begin
    let a = Array.sub a base n in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    let lo = max 0 (min (n - 1) lo) and hi = max 0 (min (n - 1) hi) in
    if lo = hi then a.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end
  end

module Summary = struct
  (* All-float record: OCaml stores it flat, so [add]'s field updates are
     raw stores — a mixed record would box a fresh float per assignment,
     and [add] runs once per histogram observation. *)
  type t = {
    mutable count : float;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0.0; sum = 0.0; min = infinity; max = neg_infinity }

  (* Inlined into [add_span] and [add_int], so the value stays unboxed. *)
  let[@inline] add t v =
    t.count <- t.count +. 1.0;
    t.sum <- t.sum +. v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let add_span t ~start ~stop = add t (stop -. start)
  let add_int t n = add t (float_of_int n)

  let count t = int_of_float t.count
  let mean t = if t.count = 0.0 then nan else t.sum /. t.count
  let min t = t.min
  let max t = t.max
  let total t = t.sum
end

module Samples = struct
  type t = {
    cap : int;
    rng : Rng.t;
    mutable seen : int;
    sum : float array;  (* one cell: unboxed accumulator (a mutable float
                           field in this mixed record would box per add) *)
    mutable data : float array;
    mutable size : int;
  }

  let create ?(cap = 100_000) rng =
    { cap; rng; seen = 0; sum = [| 0.0 |]; data = [||]; size = 0 }

  (* Inlined into [add_span] and [add_int], as [Summary.add] is. *)
  let[@inline] add t v =
    t.seen <- t.seen + 1;
    t.sum.(0) <- t.sum.(0) +. v;
    if t.size < t.cap then begin
      if t.size = Array.length t.data then begin
        let ncap = Stdlib.max 64 (Stdlib.min t.cap (2 * Stdlib.max 1 (Array.length t.data))) in
        let ndata = Array.make ncap 0.0 in
        Array.blit t.data 0 ndata 0 t.size;
        t.data <- ndata
      end;
      t.data.(t.size) <- v;
      t.size <- t.size + 1
    end
    else begin
      (* Reservoir sampling keeps each seen value with equal probability. *)
      let j = Rng.int t.rng t.seen in
      if j < t.cap then t.data.(j) <- v
    end

  let add_span t ~start ~stop = add t (stop -. start)
  let add_int t n = add t (float_of_int n)
  let count t = t.seen
  let mean t = if t.seen = 0 then nan else t.sum.(0) /. float_of_int t.seen

  let sorted t =
    let a = Array.sub t.data 0 t.size in
    Array.sort Float.compare a;
    a

  let percentile t p = percentile_of_sorted (sorted t) p

  let values t = Array.sub t.data 0 t.size

  let cdf t ~points =
    let a = sorted t in
    let n = Array.length a in
    if n = 0 then []
    else begin
      let step = Stdlib.max 1 (n / points) in
      let rec collect i acc =
        if i >= n then List.rev ((a.(n - 1), 1.0) :: acc)
        else collect (i + step) ((a.(i), float_of_int (i + 1) /. float_of_int n) :: acc)
      in
      collect 0 []
    end
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let cell t name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.replace t name c;
      c

  let incr ?(by = 1) t name =
    let c = cell t name in
    c := !c + by
  let get t name = match Hashtbl.find_opt t name with Some c -> !c | None -> 0

  let to_list t =
    List.sort compare (Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t [])
end

module Timeseries = struct
  type t = { bucket : float; table : (int, float) Hashtbl.t }

  let create ~bucket =
    assert (bucket > 0.0);
    { bucket; table = Hashtbl.create 64 }

  let add t ~time v =
    let idx = int_of_float (time /. t.bucket) in
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt t.table idx) in
    Hashtbl.replace t.table idx (cur +. v)

  let buckets t =
    if Hashtbl.length t.table = 0 then []
    else begin
      let lo = Hashtbl.fold (fun k _ acc -> min k acc) t.table max_int in
      let hi = Hashtbl.fold (fun k _ acc -> max k acc) t.table min_int in
      let rec collect i acc =
        if i < lo then acc
        else begin
          let v = Option.value ~default:0.0 (Hashtbl.find_opt t.table i) in
          collect (i - 1) ((float_of_int i *. t.bucket, v) :: acc)
        end
      in
      collect hi []
    end

  let rate t = List.map (fun (time, v) -> (time, v /. t.bucket)) (buckets t)
end
