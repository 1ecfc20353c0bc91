type 'a t = {
  mutable buf : 'a array;
  mutable len : int;
  dummy : 'a;
  copy : 'a -> 'a;
  kind : 'a -> int;
  pools : 'a array array;  (* released cells by kind, the first [free.(k)] of each *)
  free : int array;
}

let initial_capacity = 16
let initial_pool = 4

let create ~dummy ~copy ~kinds ~kind =
  {
    buf = Array.make initial_capacity dummy;
    len = 0;
    dummy;
    copy;
    kind;
    pools = Array.init kinds (fun _ -> Array.make initial_pool dummy);
    free = Array.make kinds 0;
  }

let emit t e =
  if t.len = Array.length t.buf then begin
    let buf = Array.make (2 * t.len) t.dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- e;
  t.len <- t.len + 1

let reuse t k =
  let n = t.free.(k) in
  if n = 0 then t.dummy
  else begin
    t.free.(k) <- n - 1;
    Array.unsafe_get t.pools.(k) (n - 1)
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Outbox.get";
  Array.unsafe_get t.buf i

(* Back into its kind's pool, which doubles when full. *)
let release t e =
  let k = t.kind e in
  if k >= 0 then begin
    let n = t.free.(k) in
    if n = Array.length t.pools.(k) then begin
      let pool = Array.make (2 * n) t.dummy in
      Array.blit t.pools.(k) 0 pool 0 n;
      t.pools.(k) <- pool
    end;
    t.pools.(k).(n) <- e;
    t.free.(k) <- n + 1
  end

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Outbox.truncate";
  for i = n to t.len - 1 do
    release t (Array.unsafe_get t.buf i)
  done;
  Array.fill t.buf n (t.len - n) t.dummy;
  t.len <- n

(* Top level, so that listing the effects builds no closure. *)
let rec build t mark i acc =
  if i < mark then acc else build t mark (i - 1) (t.copy t.buf.(i) :: acc)

let to_list t ~from =
  if from < 0 || from > t.len then invalid_arg "Outbox.to_list";
  build t from (t.len - 1) []

let take t =
  let effs = to_list t ~from:0 in
  truncate t 0;
  effs
