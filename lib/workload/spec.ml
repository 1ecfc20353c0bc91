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

(* One cursor per attempt walks the spec's keys: reads first, then
   read-modify-writes, then commit.  Its continuation [next] is built once,
   so an operation allocates no closure of its own. *)
type cursor = {
  ctx : Node.ctx;
  commit : unit -> unit;
  bump : Value.t -> Value.t;
  mutable reads : int list;
  mutable writes : int list;
  mutable next : Value.t -> unit;
}

let step c (_ : Value.t) =
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

let run_on_zeus node ~thread spec k =
  let bump = bump spec.payload in
  let body ctx commit =
    let c = { ctx; commit; bump; reads = spec.reads; writes = spec.writes; next = ignore } in
    c.next <- step c;
    step c Value.empty
  in
  if spec.read_only then Node.run_read node ~thread ~exec_us:spec.exec_us ~body k
  else Node.run_write node ~thread ~exec_us:spec.exec_us ~body k

let issue gen node ~thread k = run_on_zeus node ~thread (gen ~home:(Node.id node)) k
