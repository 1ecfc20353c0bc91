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

let bump payload old =
  let counter = try Value.to_int old with Invalid_argument _ -> 0 in
  Value.padded [ counter + 1 ] ~size:payload

let run_on_zeus node ~thread spec k =
  let body ctx commit =
    let rec do_reads = function
      | [] -> do_writes spec.writes
      | key :: rest -> Node.read ctx key (fun _ -> do_reads rest)
    and do_writes = function
      | [] -> commit ()
      | key :: rest -> Node.read_write ctx key (bump spec.payload) (fun _ -> do_writes rest)
    in
    do_reads spec.reads
  in
  if spec.read_only then Node.run_read node ~thread ~exec_us:spec.exec_us ~body k
  else Node.run_write node ~thread ~exec_us:spec.exec_us ~body k

let issue gen node ~thread k = run_on_zeus node ~thread (gen ~home:(Node.id node)) k
