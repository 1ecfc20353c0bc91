module Node = Zeus_core.Node
module Value = Zeus_store.Value

type t = {
  reads : int list;
  writes : int list;
  payload : int;
  exec_us : float;
  read_only : bool;
}

let write_txn ?(reads = []) ?(payload = 64) ?(exec_us = 0.5) writes =
  { reads; writes; payload; exec_us; read_only = false }

let read_txn ?(exec_us = 0.3) reads =
  { reads; writes = []; payload = 0; exec_us; read_only = true }

(* The counter in field 0 plus one, zero-padded to [payload] bytes.  [old]
   is the private copy {!Zeus_store.Txn.open_write} handed out, so when it
   already has the target length it is rewritten in place: the store never
   writes into a published value, only into such a copy. *)
let bump payload old =
  let len = Bytes.length old in
  let counter = if len < 8 then 0 else Int64.to_int (Bytes.get_int64_le old 0) in
  if len = max payload 8 then begin
    Bytes.set_int64_le old 0 (Int64.of_int (counter + 1));
    Bytes.fill old 8 (len - 8) '\000';
    old
  end
  else Value.padded [ counter + 1 ] ~size:payload

(* A cursor runs one transaction: it walks the spec's keys, reads first,
   then read-modify-writes, then commits, and every attempt's body starts
   the walk again from the first key.  Its closures are built once, with
   the cursor, and each node keeps a pool of free cursors, so issuing a
   spec allocates nothing here.  [finish] puts the cursor back in its pool
   before it calls the caller's continuation, which may issue the thread's
   next transaction in it at once.  [Node] calls an attempt's
   continuations only while that attempt runs, so a cursor moves only for
   the attempt that holds it. *)
type cursor = {
  pool : pool;
  mutable spec : t;
  mutable k : Zeus_store.Txn.outcome -> unit;
  mutable ctx : Node.ctx;
  mutable commit : unit -> unit;
  mutable reads : int list;
  mutable writes : int list;
  body : Node.ctx -> (unit -> unit) -> unit;
  next : Value.t -> unit;
  bump : Value.t -> Value.t;
  finish : Zeus_store.Txn.outcome -> unit;
}

(* Free cursors, a stack in an array that grows by doubling. *)
and pool = { mutable free : cursor array; mutable n_free : int }

type Node.front += Cursors of pool

let step c =
  match c.reads with
  | key :: rest ->
    c.reads <- rest;
    Node.read c.ctx key c.next
  | [] -> (
    match c.writes with
    | key :: rest ->
      c.writes <- rest;
      Node.read_write c.ctx key c.bump c.next
    | [] -> c.commit ())

let start c ctx commit =
  c.ctx <- ctx;
  c.commit <- commit;
  c.reads <- c.spec.reads;
  c.writes <- c.spec.writes;
  step c

let release c outcome =
  let p = c.pool and k = c.k in
  if p.n_free = Array.length p.free then begin
    let grown = Array.make ((2 * p.n_free) + 1) c in
    Array.blit p.free 0 grown 0 p.n_free;
    p.free <- grown
  end;
  p.free.(p.n_free) <- c;
  p.n_free <- p.n_free + 1;
  k outcome

let new_cursor pool ctx spec =
  let rec c =
    {
      pool;
      spec;
      k = ignore;
      ctx;
      commit = ignore;
      reads = [];
      writes = [];
      body = (fun ctx commit -> start c ctx commit);
      next = (fun (_ : Value.t) -> step c);
      bump = (fun old -> bump c.spec.payload old);
      finish = (fun outcome -> release c outcome);
    }
  in
  c

let pool_of node =
  match Node.front node with
  | Cursors p -> p
  | _ ->
    let p = { free = [||]; n_free = 0 } in
    Node.set_front node (Cursors p);
    p

let cursor node ~thread spec =
  let p = pool_of node in
  if p.n_free = 0 then new_cursor p (Node.slot node ~thread) spec
  else begin
    p.n_free <- p.n_free - 1;
    let c = p.free.(p.n_free) in
    c.spec <- spec;
    c
  end

let run_on_zeus node ~thread spec k =
  let c = cursor node ~thread spec in
  c.k <- k;
  if spec.read_only then Node.run_read node ~thread ~exec_us:spec.exec_us ~body:c.body c.finish
  else Node.run_write node ~thread ~exec_us:spec.exec_us ~body:c.body c.finish

let issue gen node ~thread k = run_on_zeus node ~thread (gen ~home:(Node.id node)) k
