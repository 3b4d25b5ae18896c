(* perf compare BASE.json... -- NEW.json...: judge a change against its
   parent from the results files of repeated untraced runs.

   One row per workload and end-to-end metric gives each side's median and
   quartiles, the share of run pairs the change wins (ties count for
   neither), and a verdict:
   - unresolved: the parent's own spread (its quartile distance over its
     median) exceeds the metric's bound, and not every run of the change
     beats every run of the parent;
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - improved: there are at least [min_pairs] pairs, the change wins at
     least nine tenths of them and the medians differ by more than the
     parent's quartile distance;
   - within bound: anything else.
   A row for failed ops per workload regresses when the change fails more.
   The exit code is 1 when any row regressed. *)

module Json = Tacos_util.Json
module Stats = Tacos_util.Stats

let median = Stats.percentile 50.

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so the run-to-run spread
   reads the same here as in any script that checks it. [xs] is not empty. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 3)

type run = { workload : string; failed : float; values : (string * float) list }

let ( let* ) = Result.bind

let runs_of_file file =
  let* text =
    try Ok (In_channel.with_open_text file In_channel.input_all) with Sys_error e -> Error e
  in
  let* doc = Result.map_error (fun e -> file ^ ": " ^ e) (Json.parse text) in
  let runs = Option.value ~default:[] (Option.bind (Json.member "runs" doc) Json.to_list) in
  Ok
    (List.filter_map
       (fun r ->
         match (Json.member "workload" r, Json.member "traced" r, Json.member "metrics" r) with
         | Some (Json.String workload), Some (Json.Bool false), Some (Json.Object ms) ->
           Some
             {
               workload;
               failed = Option.value ~default:0. (Option.bind (Json.member "failed" r) Json.to_float);
               values =
                 List.filter_map
                   (fun (k, v) ->
                     Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float))
                   ms;
             }
         | _ -> None)
       runs)

let load files =
  List.fold_left
    (fun acc f ->
      let* acc = acc in
      let* runs = runs_of_file f in
      Ok (acc @ runs))
    (Ok []) files

(* Fewer pairs claim no gain: with three alternating pairs of one commit,
   flat-paper's setup_s won all three and read "improved". *)
let min_pairs = 10

type verdict = Improved | Within | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Within -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let judge (metric : Bench_spec.metric) base next =
  let better a b = if metric.Bench_spec.lower_better then a < b else a > b in
  let bm = median base and nm = median next in
  let bq1, bq3 = quartiles base in
  let spread = (bq3 -. bq1) /. Float.abs bm in
  let worse = (if metric.Bench_spec.lower_better then nm -. bm else bm -. nm) /. Float.abs bm in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length next) base)
      (List.filteri (fun i _ -> i < List.length base) next) in
  let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let win_share = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) next in
  let v =
    if spread > metric.Bench_spec.bound && not all_better then Unresolved
    else if worse > metric.Bench_spec.bound then Regressed
    else if
      List.length pairs >= min_pairs && better nm bm && win_share >= 0.9
      && Float.abs (nm -. bm) > bq3 -. bq1
    then Improved
    else Within
  in
  (v, win_share, (nm -. bm) /. Float.abs bm)

let usage () =
  prerr_endline "usage: perf compare [--bench FILE] BASE.json... -- NEW.json...";
  3

let main args =
  let bench, args =
    match args with "--bench" :: f :: rest -> (f, rest) | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | None | Some ([], _) | Some (_, []) -> usage ()
  | Some (base_files, new_files) -> (
    match
      let* spec = Bench_spec.load bench in
      let* base = load base_files in
      let* next = load new_files in
      Ok (spec, base, next)
    with
    | Error e ->
      prerr_endline ("perf compare: " ^ e);
      2
    | Ok (spec, base, next) ->
      let workloads =
        List.fold_left
          (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
          [] base
      in
      let side runs w = List.filter (fun r -> r.workload = w) runs in
      Printf.printf "%-12s %-22s %-34s %-34s %8s %5s  %s\n" "workload" "metric"
        "base median [q1, q3]" "new median [q1, q3]" "change" "wins" "verdict";
      let cell xs =
        let q1, q3 = quartiles xs in
        Printf.sprintf "%.6g [%.6g, %.6g]" (median xs) q1 q3
      in
      let regressed = ref false in
      List.iter
        (fun w ->
          let b = side base w and n = side next w in
          List.iter
            (fun (metric : Bench_spec.metric) ->
              let values runs =
                List.filter_map (fun r -> List.assoc_opt metric.Bench_spec.name r.values) runs
              in
              match (values b, values n) with
              | [], _ | _, [] -> ()
              | bv, nv ->
                let v, win_share, change = judge metric bv nv in
                if v = Regressed then regressed := true;
                Printf.printf "%-12s %-22s %-34s %-34s %+7.2f%% %5.2f  %s\n" w
                  metric.Bench_spec.name (cell bv) (cell nv) (100. *. change) win_share
                  (verdict_name v))
            spec.Bench_spec.end_to_end;
          let failed runs = List.fold_left (fun acc r -> acc +. r.failed) 0. runs in
          let fb = failed b and fn = failed n in
          if n <> [] then begin
            if fn > fb then regressed := true;
            Printf.printf "%-12s %-22s %-34.0f %-34.0f %8s %5s  %s\n" w "failed" fb fn "" ""
              (if fn > fb then "regressed" else "within bound")
          end)
        workloads;
      if !regressed then 1 else 0)
