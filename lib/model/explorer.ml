type 'state stats = {
  explored : int;
  transitions : int;
  quiescent : int;
  max_depth : int;
  exhausted : bool;
  violation : ('state * string) option;
  trace : 'state list;
}

let bfs ~init ~next ~key ~invariant ?at_quiescence ?(max_states = 500_000) () =
  (* A visited state is remembered by the digest of its key, mapped to its
     parent's digest: holding the states themselves would keep every
     visited world (cores, hashtables) alive.  Only the frontier holds
     states. *)
  let digest s = Digest.string (key s) in
  let parent : (Digest.t, Digest.t option) Hashtbl.t = Hashtbl.create 65_536 in
  (* The frontier; [None] only fills the ring's empty slots. *)
  let queue = Zeus_sim.Fifo.create ~dummy:None in
  let explored = ref 0 in
  let transitions = ref 0 in
  let quiescent = ref 0 in
  let max_depth = ref 0 in
  let violation = ref None in
  let enqueue from depth state =
    let d = digest state in
    if not (Hashtbl.mem parent d) then begin
      Hashtbl.add parent d from;
      Zeus_sim.Fifo.push queue (Some (depth, d, state))
    end
  in
  List.iter (enqueue None 0) init;
  let bad = ref None in
  (try
     while not (Zeus_sim.Fifo.is_empty queue) do
       if !explored >= max_states then raise Exit;
       let depth, d, state = Option.get (Zeus_sim.Fifo.pop queue) in
       incr explored;
       if depth > !max_depth then max_depth := depth;
       let fail msg =
         violation := Some (state, msg);
         bad := Some d;
         raise Exit
       in
       (match invariant state with Ok () -> () | Error msg -> fail msg);
       let succs = next state in
       if succs = [] then begin
         incr quiescent;
         match at_quiescence with
         | Some check -> (
           match check state with
           | Ok () -> ()
           | Error msg -> fail ("at quiescence: " ^ msg))
         | None -> ()
       end
       else
         List.iter
           (fun s ->
             incr transitions;
             enqueue (Some d) (depth + 1) s)
           succs
     done
   with Exit -> ());
  (* The violation's trace: walk the digest chain back to an initial state,
     then replay [next] forward, at each step picking the successor whose
     key has the next digest on the chain. *)
  let trace =
    match !bad with
    | None -> []
    | Some d ->
      let rec chain d acc =
        match Hashtbl.find parent d with
        | None -> d :: acc
        | Some p -> chain p (d :: acc)
      in
      let pick d states = List.find (fun s -> Digest.equal (digest s) d) states in
      (match chain d [] with
      | [] -> []
      | d0 :: rest ->
        let s0 = pick d0 init in
        let _, path =
          List.fold_left
            (fun (s, acc) d ->
              let s' = pick d (next s) in
              (s', s' :: acc))
            (s0, [ s0 ]) rest
        in
        List.rev path)
  in
  {
    explored = !explored;
    transitions = !transitions;
    quiescent = !quiescent;
    max_depth = !max_depth;
    exhausted = Zeus_sim.Fifo.is_empty queue && Option.is_none !violation;
    violation = !violation;
    trace;
  }
