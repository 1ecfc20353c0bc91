type Zeus_net.Msg.payload += Heartbeat of { epoch : int }

type config = { period_us : float; min_timeout_us : float; max_timeout_us : float }

let default_config = { period_us = 200.0; min_timeout_us = 1_200.0; max_timeout_us = 2_400.0 }
let phi_factor = 4.0
let min_samples = 3

type peer = {
  mutable last_arrival : float;
  mutable mean_ia : float;  (* EWMA inter-arrival *)
  mutable dev_ia : float;   (* EWMA mean absolute deviation *)
  mutable samples : int;
}

type t = { node : int; config : config; peers : peer array }

let fresh_peer config ~now =
  { last_arrival = now; mean_ia = config.period_us; dev_ia = 0.0; samples = 0 }

let create config ~node ~nodes ~now =
  { node; config; peers = Array.init nodes (fun _ -> fresh_peer config ~now) }

let note_arrival t ~src ~now =
  if src <> t.node && src >= 0 && src < Array.length t.peers then begin
    let p = t.peers.(src) in
    let ia = now -. p.last_arrival in
    if p.samples = 0 then p.mean_ia <- Float.max ia t.config.period_us
    else begin
      (* Jacobson-style smoothing, as in the transport's RTO estimator. *)
      let err = ia -. p.mean_ia in
      p.mean_ia <- p.mean_ia +. (err /. 8.0);
      p.dev_ia <- p.dev_ia +. ((Float.abs err -. p.dev_ia) /. 4.0)
    end;
    p.samples <- p.samples + 1;
    p.last_arrival <- now
  end

let timeout_us t ~peer =
  let p = t.peers.(peer) in
  if p.samples < min_samples then t.config.max_timeout_us
  else
    Float.min t.config.max_timeout_us
      (Float.max t.config.min_timeout_us
         (p.mean_ia +. (phi_factor *. p.dev_ia)))

let silence_us t ~peer ~now = now -. t.peers.(peer).last_arrival

let suspects t ~peer ~now =
  peer <> t.node && silence_us t ~peer ~now > timeout_us t ~peer

let reset_peer t ~peer ~now = t.peers.(peer) <- fresh_peer t.config ~now

let reset_all t ~now =
  Array.iteri (fun i _ -> t.peers.(i) <- fresh_peer t.config ~now) t.peers
