(* [perf.exe compare PARENT.json CHANGE.json]: the rule for claiming a
   gain or a regression from runs on a small, noisy machine.

   Runs of the two commits are paired in the order they were made (the
   i-th parent run of a workload with the i-th change run), which is
   what alternating the two sides while measuring gives. Per (metric,
   workload), the first rule that holds decides:

   - better: the change wins at least nine tenths of the pairs (ties
     count for neither) and the medians differ by more than the
     parent's own interquartile distance;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: the parent's own spread is wider than the bound, so
     "no worse" cannot be shown (unless every change run beats every
     parent run);
   - unchanged: otherwise.

   Directions and bounds come from [Metrics], which test_perf keeps
   equal to BENCHMARK.json. Metrics without a bound (the per-layer
   ones) are worse only by the mirror image of the "better" rule. *)

type direction = Higher | Lower
type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type row = {
  pairs : int;
  wins : int;
  parent_median : float;
  change_median : float;
  parent_iqr : float;
  verdict : verdict;
}

let rec zip a b =
  match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

let judge direction ~bound ~parent ~change =
  let improves a b =
    match direction with Higher -> b > a | Lower -> b < a
  in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> improves p c) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> improves c p) pairs) in
  let iqr xs =
    let q1, _, q3 = Stats.quartiles xs in
    q3 -. q1
  in
  let pm = Stats.median parent and cm = Stats.median change in
  let piqr = iqr parent in
  let npairs = List.length pairs in
  let nine_tenths k = npairs > 0 && 10 * k >= 9 * npairs in
  let separated = Float.abs (cm -. pm) > piqr in
  (* Worsening as a share of the parent's median; positive is worse. *)
  let worsening =
    if pm = 0. then 0.
    else
      (match direction with Higher -> pm -. cm | Lower -> cm -. pm)
      /. Float.abs pm
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> improves p c) parent) change
  in
  let verdict =
    if nine_tenths wins && separated && improves pm cm then Better
    else
      match bound with
      | Some b ->
        if worsening > b then Worse
        else if Stats.spread parent > b && not all_better then Unresolved
        else Unchanged
      | None ->
        if nine_tenths losses && separated && improves cm pm then Worse
        else if separated then Unresolved
        else Unchanged
  in
  {
    pairs = npairs;
    wins;
    parent_median = pm;
    change_median = cm;
    parent_iqr = piqr;
    verdict;
  }

let read_records path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Report.of_record l with
         | Ok r -> r
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))

(* (workload, metric) -> values in run order. *)
let series records =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (r : Report.t) ->
      List.iter
        (fun (m : Report.metric) ->
          let k = (r.workload, m.name) in
          if not (Hashtbl.mem tbl k) then order := k :: !order;
          Hashtbl.replace tbl k
            (m.value :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
        r.metrics)
    records;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let spec name =
  List.find_opt
    (fun (s : Metrics.spec) -> s.name = name)
    (Metrics.end_to_end @ Metrics.per_layer)
  |> Option.map (fun (s : Metrics.spec) ->
         ((if s.higher_is_better then Higher else Lower), s.bound))

let run ~parent ~change =
  let ps = series (read_records parent) and cs = series (read_records change) in
  Printf.printf "%-10s %-26s %5s %5s %14s %14s %12s  %s\n" "workload" "metric"
    "pairs" "wins" "parent p50" "change p50" "parent iqr" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((w, name), pv) ->
      match (List.assoc_opt (w, name) cs, spec name) with
      | Some cv, Some (dir, bound) ->
        let r = judge dir ~bound ~parent:pv ~change:cv in
        if r.verdict = Worse then incr worse;
        Printf.printf "%-10s %-26s %5d %5d %14.6g %14.6g %12.4g  %s\n" w name
          r.pairs r.wins r.parent_median r.change_median r.parent_iqr
          (verdict_name r.verdict)
      | _ -> ())
    ps;
  !worse
