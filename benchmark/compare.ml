(* [zeus_bench.exe compare A.json B.json]: one row per workload and
   end-to-end metric, judged against the bounds of BENCHMARK.json.

   Each side's value is the run value of BENCHMARK.json's definition: the
   median of the repeats, or the best repeat for [txn_per_s].

   - A metric that is a pure function of the seed has no noise: any change
     is real, and a change beyond the bound is better or worse.
   - Otherwise, a row is unresolved when either side's interquartile range
     (of the better half of the repeats, for a wall-clock metric) exceeds the
     bound as a share of its median, unless every run of B reads better
     than every run of A; then the values decide: worse or better beyond
     the bound, else same.

   Exits 1 when any row is worse or unresolved. *)

open Util

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge ~(metric : Catalog.e2e) ~bound a b =
  let worse_if_positive x =
    match metric.Catalog.better with Catalog.Lower -> x | Catalog.Higher -> -.x
  in
  let ma = Catalog.run_value metric a and mb = Catalog.run_value metric b in
  let worsening = worse_if_positive ((mb -. ma) /. Float.abs ma) in
  let by_bound () =
    if worsening > bound then Worse else if -.worsening > bound then Better else Same
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse_if_positive (y -. x) < 0.0) a) b
  in
  if metric.Catalog.deterministic then by_bound ()
  else if all_better && -.worsening > bound then Better
  else if Catalog.repeat_spread metric a > bound || Catalog.repeat_spread metric b > bound then
    Unresolved
  else by_bound ()

let main ~spec a_path b_path =
  let bounds =
    List.map
      (fun m -> (string_of "name" m, float_of "bound" m))
      (list_of "end_to_end" (parse_file spec))
  in
  let a = parse_file a_path and b = parse_file b_path in
  let rows = ref [] in
  Printf.printf "%-18s %-22s %14s %14s %8s %6s %6s  %s\n" "workload" "metric" "A" "B"
    "change" "bound" "exact" "verdict";
  List.iter
    (fun (wname, wa) ->
      match Zeus_telemetry.Jsonv.member wname (member_exn "workloads" b) with
      | None -> Printf.printf "%-18s missing from %s\n" wname b_path
      | Some wb ->
        let da = string_of "sim_digest" wa and db = string_of "sim_digest" wb in
        Printf.printf "%-18s %-22s %s\n" wname "sim_digest"
          (if da = db then "same" else Printf.sprintf "differs (%s vs %s)" da db);
        List.iter
          (fun (name, bound) ->
            match List.find_opt (fun (m : Catalog.e2e) -> m.Catalog.name = name) Catalog.e2e with
            | None -> Printf.printf "%-18s %-22s not reported by this benchmark\n" wname name
            | Some metric ->
              let values w =
                List.map
                  (fun v -> Option.value ~default:Float.nan (Zeus_telemetry.Jsonv.to_float v))
                  (list_of "values" (member_exn name (member_exn "end_to_end" w)))
              in
              let va = values wa and vb = values wb in
              let v = judge ~metric ~bound va vb in
              rows := v :: !rows;
              let ma = Catalog.run_value metric va and mb = Catalog.run_value metric vb in
              Printf.printf "%-18s %-22s %14.6g %14.6g %+7.2f%% %5.1f%% %6s  %s\n" wname name ma
                mb
                (100.0 *. (mb -. ma) /. Float.abs ma)
                (100.0 *. bound)
                (if not metric.Catalog.deterministic then "" else if ma = mb then "=" else "!=")
                (verdict_name v))
          bounds)
    (assoc_of "workloads" a);
  let count v = List.length (List.filter (( = ) v) !rows) in
  Printf.printf "\n%d better, %d same, %d worse, %d unresolved\n" (count Better) (count Same)
    (count Worse) (count Unresolved);
  if count Worse + count Unresolved > 0 then 1 else 0
