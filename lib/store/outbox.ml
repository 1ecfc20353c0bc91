type 'a t = { mutable buf : 'a array; mutable len : int; dummy : 'a }

let initial_capacity = 16
let create ~dummy = { buf = Array.make initial_capacity dummy; len = 0; dummy }

let emit t e =
  if t.len = Array.length t.buf then begin
    let buf = Array.make (2 * t.len) t.dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Outbox.get";
  Array.unsafe_get t.buf i

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Outbox.truncate";
  Array.fill t.buf n (t.len - n) t.dummy;
  t.len <- n

(* Top level, so that listing the effects builds no closure. *)
let rec build buf mark i acc = if i < mark then acc else build buf mark (i - 1) (buf.(i) :: acc)

let to_list t ~from =
  if from < 0 || from > t.len then invalid_arg "Outbox.to_list";
  build t.buf from (t.len - 1) []

let take t =
  let effs = to_list t ~from:0 in
  truncate t 0;
  effs
