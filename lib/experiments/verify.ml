(** The "formal verification" row of the evaluation (§8): exhaustive
    exploration of the real protocol cores (the TLA+ stand-in,
    [Zeus_model.Core_harness]) over its scenario table. *)

module E = Zeus_model.Explorer
module H = Zeus_model.Core_harness

let run ~quick =
  let rows =
    List.map
      (fun (sc : H.scenario) ->
        let max_states = if quick then min sc.H.cap 60_000 else sc.H.cap in
        let stats = sc.H.explore ~max_states in
        ( sc.H.name,
          match H.verdict sc ~max_states stats with
          | Error msg -> "FAILED: " ^ msg
          | Ok () ->
            Printf.sprintf "ok — %d states%s, %d transitions, depth %d, %d quiescent"
              stats.E.explored
              (if stats.E.exhausted then " (exhaustive)"
               else if Option.is_some stats.E.violation then " (counterexample)"
               else " (capped)")
              stats.E.transitions stats.E.max_depth stats.E.quiescent ))
      H.scenarios
  in
  Exp.print_kv
    "verify: exhaustive model checking of the real protocol cores (TLA+ stand-in, §8)"
    rows
