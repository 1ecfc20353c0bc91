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

(* Top level, so that taking the effects builds no closure. *)
let rec build buf dummy i acc =
  if i < 0 then acc
  else begin
    let e = buf.(i) in
    buf.(i) <- dummy;
    build buf dummy (i - 1) (e :: acc)
  end

let take t =
  let effs = build t.buf t.dummy (t.len - 1) [] in
  t.len <- 0;
  effs
