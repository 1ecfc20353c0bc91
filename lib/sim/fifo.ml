type 'a t = {
  mutable buf : 'a array;  (* length a power of two *)
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let initial_capacity = 16

let create ~dummy = { buf = Array.make initial_capacity dummy; head = 0; len = 0; dummy }
let length t = t.len
let is_empty t = t.len = 0

(* Double the ring, unrolling it so the head lands at slot 0. *)
let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (2 * cap) t.dummy in
  let first = cap - t.head in
  Array.blit t.buf t.head nbuf 0 first;
  Array.blit t.buf 0 nbuf first t.head;
  t.buf <- nbuf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0
