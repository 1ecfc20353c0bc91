type Zeus_net.Msg.payload += Heartbeat of { epoch : int }

type config = { period_us : float; min_timeout_us : float; max_timeout_us : float }

let default_config = { period_us = 200.0; min_timeout_us = 1_200.0; max_timeout_us = 2_400.0 }
let phi_factor = 4.0
let min_samples = 3

(* A peer's arrival estimate.  All its fields are floats, so the record
   is stored flat and updating an estimate boxes nothing; the sample
   counts sit in an array of their own. *)
type estimate = {
  mutable last_arrival : float;
  mutable mean_ia : float;  (* EWMA inter-arrival *)
  mutable dev_ia : float;   (* EWMA mean absolute deviation *)
}

type t = { node : int; config : config; peers : estimate array; samples : int array }

let create config ~node ~nodes ~now =
  {
    node;
    config;
    peers =
      Array.init nodes (fun _ -> { last_arrival = now; mean_ia = config.period_us; dev_ia = 0.0 });
    samples = Array.make nodes 0;
  }

let note_arrival t ~src ~now =
  if src <> t.node && src >= 0 && src < Array.length t.peers then begin
    let p = t.peers.(src) in
    let ia = now -. p.last_arrival in
    if t.samples.(src) = 0 then p.mean_ia <- Float.max ia t.config.period_us
    else begin
      (* Jacobson-style smoothing, as in the transport's RTO estimator. *)
      let err = ia -. p.mean_ia in
      p.mean_ia <- p.mean_ia +. (err /. 8.0);
      p.dev_ia <- p.dev_ia +. ((Float.abs err -. p.dev_ia) /. 4.0)
    end;
    t.samples.(src) <- t.samples.(src) + 1;
    p.last_arrival <- now
  end

let timeout_us t ~peer =
  let p = t.peers.(peer) in
  if t.samples.(peer) < min_samples then t.config.max_timeout_us
  else
    Float.min t.config.max_timeout_us
      (Float.max t.config.min_timeout_us
         (p.mean_ia +. (phi_factor *. p.dev_ia)))

let silence_us t ~peer ~now = now -. t.peers.(peer).last_arrival

let suspects t ~peer ~now =
  peer <> t.node && silence_us t ~peer ~now > timeout_us t ~peer

let reset_peer t ~peer ~now =
  let p = t.peers.(peer) in
  p.last_arrival <- now;
  p.mean_ia <- t.config.period_us;
  p.dev_ia <- 0.0;
  t.samples.(peer) <- 0

let reset_all t ~now =
  for peer = 0 to Array.length t.peers - 1 do
    reset_peer t ~peer ~now
  done
