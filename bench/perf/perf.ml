(* perf: the repo's end-to-end and per-layer benchmark.

     perf run [--workload NAME|all] [--seed N] [--seconds S]
              [--trace 0|1|FILE] [--out FILE] [--quick] [--bench FILE]
     perf compare [--bench FILE] BASE.json... -- NEW.json...

   `run` sets each workload up three times (setup_s is the median), runs
   its op list for --seconds with every output checked, and prints every
   metric by name and unit, then one JSON result line. With --trace 1 (or
   a trace FILE) it runs the op list untraced for a third of the time,
   repeats the same ops with spans recorded and the Obs registry on, then
   once more untraced, writes the spans as a Chrome trace and reports the
   per-layer metrics instead.
   `--workload all` runs each workload in its own child process, so heap
   and GC state are per workload. `--quick` is the smoke check `dune
   runtest` runs: a handful of ops per workload, checked for determinism.
   Everything runs single-threaded with in-process calls. *)

module Json = Tacos_util.Json
module Stats = Tacos_util.Stats
module Obs = Tacos_obs.Obs
module Chrome = Tacos_obs.Chrome

(* Order statistics of a run's samples, p in [0, 100]; nan when there are
   none, as in the empty outcome the metric names are read from. *)
let percentile p xs = if xs = [] then nan else Stats.percentile p xs
let geomean xs = if xs = [] then nan else Stats.geomean xs
let median = percentile 50.

let workloads =
  [ Synth_load.flat_paper; Synth_load.hier_scale; Serve_load.serve_hot; Serve_load.serve_churn ]

(* Set-ups per run: setup_s is their median. *)
let setups = 3

(* Machine-speed samples taken after each set-up, to scale it. *)
let setup_samples = 20
let default_seconds = 15

(* An open-loop window whose generator ran later than this at p99 is
   discarded: the box stalled, and its latencies say nothing about the
   program. *)
let late_limit_ms = 5.

(* Open-loop windows per run before it is declared invalid. *)
let attempts = 3

(* Traced op wall time the per-layer self times must account for. *)
let self_sum_tolerance = 0.05

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let get name ms = (List.find (fun x -> x.name = name) ms).value

(* --- end-to-end metrics ------------------------------------------------------ *)

let latencies (o : Load.outcome) = List.map (fun (op : Load.op) -> op.Load.latency_ms) o.Load.ops

(* The sum over op classes of each class's median service time: the time to
   run the set once, robust to single spikes. *)
let set_time_s (o : Load.outcome) =
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun (op : Load.op) ->
      Hashtbl.replace by_class op.Load.cls
        (op.Load.service_ms :: Option.value ~default:[] (Hashtbl.find_opt by_class op.Load.cls)))
    o.Load.ops;
  Hashtbl.fold (fun _ ms acc -> acc +. median ms) by_class 0. /. 1e3

let busy_s (o : Load.outcome) =
  List.fold_left (fun acc (op : Load.op) -> acc +. op.Load.service_ms) 0. o.Load.ops /. 1e3

(* Spans are wall-clock, so the trace is held against the ops' wall time. *)
let wall_busy_ms (o : Load.outcome) =
  List.fold_left (fun acc (op : Load.op) -> acc +. op.Load.wall_ms) 0. o.Load.ops

(* Closed loops report ops per second of time inside the program; an open
   loop reports completions per second of its window, which equals the
   offered rate unless the backlog grew. *)
let throughput (o : Load.outcome) =
  let n = float_of_int (List.length o.Load.ops) in
  if o.Load.open_loop then n /. o.Load.window_s else n /. busy_s o

(* The outcome with each op's service time and latency multiplied by the
   factor that makes them read in seconds of the reference machine at the
   time the op ran (see Calib). *)
let scaled scale_at (o : Load.outcome) =
  let op (x : Load.op) =
    let k = scale_at x.Load.start in
    { x with Load.service_ms = x.Load.service_ms *. k; latency_ms = x.Load.latency_ms *. k }
  in
  { o with Load.ops = List.map op o.Load.ops }

let end_to_end ~setup_s (o : Load.outcome) =
  let lat = latencies o in
  [
    m "setup_s" "s" setup_s;
    m "latency_ms_p50" "ms" (percentile 50. lat);
    m "latency_ms_p90" "ms" (percentile 90. lat);
    m "throughput_ops_s" "ops/s" (throughput o);
    m "set_time_s" "s" (set_time_s o);
    m "collective_us_geomean" "us" (geomean o.Load.collective_us);
    m "peak_heap_mb" "MB" o.Load.peak_heap_mb;
  ]

(* The open-loop generator's numbers, and the share of requests over the
   SLO from their due time, failed ones counted as misses. *)
let generator (o : Load.outcome) =
  let n = List.length o.Load.ops in
  let over = List.length (List.filter (fun l -> l > Serve_load.slo_ms) (latencies o)) in
  let late = if o.Load.late_ms = [] then [ 0. ] else o.Load.late_ms in
  [
    m "gen.late_ms_max" "ms" (List.fold_left Float.max 0. late);
    m "gen.late_ms_p99" "ms" (percentile 99. late);
    m "gen.backlog" "count" (float_of_int o.Load.backlog);
    m "gen.slo_miss_ratio" "ratio"
      (if o.Load.open_loop && n > 0 then
         float_of_int (over + List.length o.Load.failures) /. float_of_int n
       else 0.);
  ]

let stalled (o : Load.outcome) =
  o.Load.open_loop && get "gen.late_ms_p99" (generator o) > late_limit_ms

(* --- per-layer metrics -------------------------------------------------------- *)

let ratio a b = if b > 0. then a /. b else 0.

(* The layer metrics of a traced run: its spans, the Obs registry it ran
   with, and the counters the workload read from the program. *)
let per_layer ~(untraced : Load.outcome) ~(traced : Load.outcome) =
  let snap = Obs.snapshot () in
  let obs section name field =
    match Option.bind (Json.member section snap) (Json.member name) with
    | Some (Json.Number v) when field = "" -> v
    | Some doc -> Option.value ~default:0. (Option.bind (Json.member field doc) Json.to_float)
    | None -> 0.
  in
  let counter name = obs "counters" name "" in
  let extra name = Option.value ~default:0. (List.assoc_opt name traced.Load.extras) in
  let span = Span.total in
  let kind k s = String.starts_with ~prefix:k s in
  let top = span "topology" and synth = span "synthesizer" and groups = span "groups" in
  let decompose = span ~kind:(kind "decompose") "groups" in
  let verify = span "collective" and sim = span "simulator" and serve = span "serve" in
  let export = span ~kind:(kind "export") "serve" in
  let tune = span ~kind:(kind "tune") "serve" and sketch = span ~kind:(kind "sketch") "serve" in
  let calls (t : Span.total) = float_of_int t.Span.calls in
  (* Where the workload calls the synthesizer itself, its spans; where the
     synthesizer runs inside the group planner or the service, its own
     per-trial timer (one trial per synthesis here). *)
  let synth_calls, synth_ms =
    if synth.Span.calls > 0 then (calls synth, synth.Span.ms)
    else (obs "timers" "synth.trial_seconds" "count", obs "timers" "synth.trial_seconds" "sum" *. 1e3)
  in
  let matches = counter "synth.matches" and pick_scans = counter "synth.pick_scans" in
  let hits = extra "serve.hits" and misses = extra "serve.misses" in
  let syntheses = extra "groups.syntheses" and dedup = extra "groups.dedup_hits" in
  let stages = extra "registry.synthesis_stage_ms" +. extra "export.stage_ms" in
  let self_sum = List.fold_left (fun acc l -> acc +. (span l).Span.self_ms) 0. (Span.layers ()) in
  let traced_ms = wall_busy_ms traced in
  [
    m "topology.calls" "count" (calls top);
    m "topology.ms" "ms" top.Span.ms;
    m "synthesizer.calls" "count" synth_calls;
    m "synthesizer.ms" "ms" synth_ms;
    m "synthesizer.alloc_mwords" "Mwords" synth.Span.alloc_mwords;
    m "synthesizer.rounds" "count" (counter "synth.rounds");
    m "synthesizer.matches" "count" matches;
    m "synthesizer.idle_links" "count" (obs "histograms" "synth.idle_links" "sum");
    m "synthesizer.pick_scans" "count" pick_scans;
    m "synthesizer.pick_probes" "count" (obs "histograms" "synth.pick_scan_len" "sum");
    m "synthesizer.memo_hits" "count" (counter "synth.memo_hits");
    m "synthesizer.match_ratio" "ratio" (ratio matches pick_scans);
    m "groups.calls" "count" (calls groups);
    m "groups.ms" "ms" groups.Span.ms;
    m "groups.self_ms" "ms"
      (if groups.Span.calls > 0 then groups.Span.ms -. extra "groups.phase_synth_ms" else 0.);
    m "groups.decompose_ms" "ms" decompose.Span.ms;
    m "groups.syntheses" "count" syntheses;
    m "groups.dedup_hits" "count" dedup;
    m "groups.dedup_ratio" "ratio" (ratio dedup (dedup +. syntheses));
    m "groups.alloc_mwords" "Mwords" groups.Span.alloc_mwords;
    m "collective.verify_calls" "count" (calls verify);
    m "collective.verify_ms" "ms" verify.Span.ms;
    m "collective.sends" "count" (extra "collective.sends");
    m "simulator.calls" "count" (calls sim);
    m "simulator.ms" "ms" sim.Span.ms;
    m "simulator.events" "count" (counter "engine.events");
    m "simulator.alloc_mwords" "Mwords" sim.Span.alloc_mwords;
    m "serve.calls" "count" (calls serve);
    m "serve.ms" "ms" serve.Span.ms;
    m "serve.self_ms" "ms" (if serve.Span.calls > 0 then serve.Span.ms -. stages else 0.);
    m "serve.queue_wait_ms" "ms" (extra "serve.queue_wait_ms");
    m "serve.hits" "count" hits;
    m "serve.misses" "count" misses;
    m "serve.errors" "count" (extra "serve.errors");
    m "serve.shed" "count" (extra "serve.shed");
    m "serve.degraded" "count" (extra "serve.degraded");
    m "serve.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "registry.synthesis_stage_ms" "ms" (extra "registry.synthesis_stage_ms");
    m "registry.entries" "count" (extra "registry.entries");
    m "registry.disk_bytes" "bytes" (extra "registry.disk_bytes");
    m "registry.evicted" "count" (extra "registry.evicted");
    m "registry.quarantined" "count" (extra "registry.quarantined");
    m "export.calls" "count" (calls export);
    m "export.ms" "ms" export.Span.ms;
    m "export.stage_ms" "ms" (extra "export.stage_ms");
    m "tuner.calls" "count" (calls tune);
    m "tuner.ms" "ms" tune.Span.ms;
    m "sketch.calls" "count" (calls sketch);
    m "sketch.ms" "ms" sketch.Span.ms;
    m "harness.self_ms" "ms" (span "harness").Span.self_ms;
    m "trace.overhead_ratio" "ratio" ((traced_ms /. wall_busy_ms untraced) -. 1.);
    m "trace.self_sum_ratio" "ratio" (ratio self_sum traced_ms);
  ]
  @ generator traced

(* --- one workload, in this process --------------------------------------------- *)

type report = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failures : string list;
  metrics : metric list;  (** the metrics BENCHMARK.json declares for this mode *)
  details : metric list;  (** the rest, for the results file and the log *)
  order : string;
  invalid : string option;
}

let trace_file ~workload ~seed = function
  | "1" -> Filename.concat Load.out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
  | file -> file

let run_workload (w : Load.t) ~seed ~seconds ~trace ~quick =
  let traced = trace <> "0" in
  let horizon = if quick then Load.Ops w.Load.quick_ops else Load.Seconds seconds in
  (* Each set-up replaces the previous instance; the first one counts from
     process start, where the process's CPU time is 0. The machine's speed
     is sampled after each, outside its timed interval. *)
  let rec set_up k acc prev =
    if k = 0 then (Option.get prev, acc)
    else begin
      Option.iter (fun (i : Load.instance) -> i.Load.close ()) prev;
      let c0 = if acc = [] then 0. else Load.cpu () in
      let inst = w.Load.setup ~seed ~quick ~horizon in
      let cpu_s = Load.cpu () -. c0 in
      let kernel_ms = Calib.burst setup_samples in
      set_up (k - 1) ((cpu_s, Calib.nominal_ms /. kernel_ms) :: acc) (Some inst)
    end
  in
  let inst, setup_times = set_up (if quick then 1 else setups) [] None in
  let limit ~share = if quick then horizon else Load.Seconds (seconds *. share) in
  (* Every run starts from a compacted heap, so no run inherits the GC
     debt of the set-up or of the run before it. *)
  let run limit =
    Gc.compact ();
    inst.Load.run limit
  in
  Fun.protect ~finally:inst.Load.close (fun () ->
      if not traced then begin
        (* An open-loop window the generator could not keep to is measured
           again on the same requests, up to [attempts] windows in all; the
           run is invalid only if every one stalled. *)
        let rec measure k =
          let o = run (limit ~share:1.) in
          if k < attempts && o.Load.failures = [] && stalled o then measure (k + 1) else (k, o)
        in
        let tries, o = measure 1 in
        let gen = generator o in
        let failed = List.length o.Load.failures in
        let s = scaled (Calib.scale_at ()) o in
        let setup_s = median (List.map (fun (cpu_s, k) -> cpu_s *. k) setup_times) in
        let raw_setup_s = median (List.map fst setup_times) in
        {
          workload = w.Load.name;
          seed;
          traced;
          attempted = List.length o.Load.ops;
          failures = o.Load.failures;
          metrics = end_to_end ~setup_s s;
          details =
            m "failed_ratio" "ratio" (ratio (float_of_int failed) (float_of_int (List.length o.Load.ops)))
            :: m "window_s" "s" o.Load.window_s
            :: m "windows" "count" (float_of_int tries)
            :: m "latency_ms_p99" "ms" (percentile 99. (latencies s))
            :: m "calib_ms" "ms" (Calib.measured_ms ())
            :: m "calib_samples" "count" (float_of_int (List.length !Calib.samples))
            :: List.filter_map
                 (fun x ->
                   if List.mem x.unit_ [ "s"; "ms"; "ops/s" ] then Some { x with name = "raw_" ^ x.name }
                   else None)
                 (end_to_end ~setup_s:raw_setup_s o)
            @ gen;
          order = o.Load.order;
          invalid =
            (if stalled o then
               Some (Printf.sprintf "generator p99 lateness %.2f ms exceeds %.0f ms in %d windows"
                       (get "gen.late_ms_p99" gen) late_limit_ms tries)
             else None);
        }
      end
      else begin
        (* A first untraced pass warms the heap. The traced pass and an
           untraced repeat of the same ops then start from the same warm
           state, and their ratio is the tracing overhead. *)
        let first = run (limit ~share:(1. /. 3.)) in
        let same = Load.Ops (List.length first.Load.ops) in
        Span.reset ();
        Obs.reset ();
        Span.on := true;
        Obs.enable ();
        let traced_o =
          Fun.protect
            ~finally:(fun () ->
              Span.on := false;
              Obs.disable ())
            (fun () -> run same)
        in
        let untraced = run same in
        let layer = per_layer ~untraced ~traced:traced_o in
        let file = trace_file ~workload:w.Load.name ~seed trace in
        let doc = Span.chrome ~process:("perf " ^ w.Load.name) () in
        Load.mkdir_p (Filename.dirname file);
        Out_channel.with_open_text file (fun oc -> output_string oc (Json.encode doc));
        let trace_failures =
          (match Chrome.validate doc with
          | Ok () -> []
          | Error e -> [ "trace " ^ file ^ ": " ^ e ])
          @
          let r = get "trace.self_sum_ratio" layer in
          if Float.abs (r -. 1.) > self_sum_tolerance then
            [ Printf.sprintf "layer self times sum to %.3f of the traced op time" r ]
          else []
        in
        {
          workload = w.Load.name;
          seed;
          traced;
          attempted =
            List.fold_left (fun acc (o : Load.outcome) -> acc + List.length o.Load.ops) 0
              [ first; traced_o; untraced ];
          failures =
            first.Load.failures @ traced_o.Load.failures @ untraced.Load.failures
            @ trace_failures;
          metrics = layer;
          details = [ m "collective_us_geomean" "us" (geomean traced_o.Load.collective_us) ];
          order = first.Load.order;
          invalid = None;
        }
      end)

(* --- output ------------------------------------------------------------------------ *)

let metrics_json ms =
  Json.Object
    (List.map
       (fun x ->
         ( x.name,
           Json.Object [ ("value", Json.Number x.value); ("unit", Json.String x.unit_) ] ))
       ms)

let report_json r =
  Json.Object
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Number (float_of_int r.seed));
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (r.failures = []));
      ("attempted", Json.Number (float_of_int r.attempted));
      ("failed", Json.Number (float_of_int (List.length r.failures)));
      ("failures", Json.Array (List.map (fun f -> Json.String f) r.failures));
      ("invalid", match r.invalid with Some why -> Json.String why | None -> Json.Null);
      ("metrics", metrics_json r.metrics);
      ("details", metrics_json r.details);
    ]

let print_report r =
  Printf.printf "== %s · seed %d · %s · %d ops · %d failed\n" r.workload r.seed
    (if r.traced then "traced" else "untraced")
    r.attempted (List.length r.failures);
  List.iter
    (fun x -> Printf.printf "  %-30s %14.6g %s\n" x.name x.value x.unit_)
    (r.metrics @ r.details);
  List.iteri (fun i f -> if i < 10 then Printf.eprintf "perf: %s: %s\n" r.workload f) r.failures;
  Option.iter (fun why -> Printf.eprintf "perf: %s: run invalid: %s\n" r.workload why) r.invalid

(* The result line: always the last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  print_endline
    (Json.encode
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Number (float_of_int attempted));
            ("failed", Json.Number (float_of_int failed));
            ("metrics", metrics);
          ]))

let write_json file doc =
  Load.mkdir_p (Filename.dirname file);
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.encode doc ^ "\n"))

let exit_code r =
  if r.failures <> [] then 1 else if r.invalid <> None then 2 else 0

(* --- the quick smoke check ------------------------------------------------------ *)

(* Fields that must repeat exactly between two runs of one seed. *)
let deterministic =
  [
    "collective_us_geomean"; "synthesizer.matches"; "synthesizer.rounds"; "groups.syntheses";
    "serve.hits"; "serve.misses"; "registry.evicted";
  ]

let smoke (w : Load.t) ~seed =
  let run ~seed ~trace = run_workload w ~seed ~seconds:0. ~trace ~quick:true in
  let file = Filename.concat Load.out_dir (Printf.sprintf "smoke-%s.json" w.Load.name) in
  let a = run ~seed ~trace:file and b = run ~seed ~trace:file in
  Sys.remove file;
  let other = run ~seed:(seed + 1) ~trace:"0" in
  let value r name = List.find_opt (fun x -> x.name = name) (r.metrics @ r.details) in
  let problems =
    List.filter_map
      (fun name ->
        if value a name = value b name then None
        else Some (Printf.sprintf "%s differs between two runs of seed %d" name seed))
      deterministic
    @ (if a.order = other.order then
         [ Printf.sprintf "seeds %d and %d generate the same op order" seed (seed + 1) ]
       else [])
    @ a.failures @ b.failures @ other.failures
  in
  let attempted = a.attempted + b.attempted + other.attempted in
  Printf.printf "smoke %-12s %4d ops  %s\n" w.Load.name attempted
    (if problems = [] then "ok" else "FAILED");
  List.iter (fun p -> Printf.eprintf "perf: smoke %s: %s\n" w.Load.name p) problems;
  (attempted, problems)

(* The metric names and units the code reports must be the ones
   BENCHMARK.json declares. *)
let check_declared file =
  match Bench_spec.load file with
  | Error e -> [ e ]
  | Ok spec ->
    let names l = List.map (fun (x : Bench_spec.metric) -> (x.Bench_spec.name, x.Bench_spec.unit_)) l in
    let e2e = List.map (fun x -> (x.name, x.unit_)) (end_to_end ~setup_s:1. Load.empty) in
    let layer =
      List.map (fun x -> (x.name, x.unit_)) (per_layer ~untraced:Load.empty ~traced:Load.empty)
    in
    (if names spec.Bench_spec.end_to_end = e2e then [] else [ file ^ ": end_to_end metrics differ from the code's" ])
    @ (if names spec.Bench_spec.per_layer = layer then [] else [ file ^ ": per_layer metrics differ from the code's" ])
    @
    if spec.Bench_spec.workloads = List.map (fun (w : Load.t) -> w.Load.name) workloads then []
    else [ file ^ ": workloads differ from the code's" ]

(* --- command line ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|FILE] \
     [--out FILE] [--quick] [--bench FILE]\n\
    \       perf compare [--bench FILE] BASE.json... -- NEW.json...";
  exit 3

let rec flags acc = function
  | "--quick" :: rest -> flags (("quick", "1") :: acc) rest
  | ("--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--bench") as flag
    :: value :: rest ->
    flags ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
  | [] -> acc
  | arg :: _ ->
    Printf.eprintf "perf: unexpected argument %S\n" arg;
    usage ()

let child_run (w : Load.t) ~seed ~seconds ~trace =
  let out = Filename.concat Load.out_dir (Printf.sprintf "%s-seed%d.json" w.Load.name seed) in
  let trace =
    match trace with
    | "0" | "1" -> trace
    | file -> Filename.remove_extension file ^ "-" ^ w.Load.name ^ ".json"
  in
  let args =
    [| Sys.executable_name; "run"; "--workload"; w.Load.name; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%.0f" seconds; "--trace"; trace; "--out"; out |]
  in
  (* A results file left by an earlier run must not stand in for a child
     that dies before it writes its own. *)
  if Sys.file_exists out then Sys.remove out;
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  (* Echo the child's report; its result line is folded into ours. *)
  List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
  flush stdout;
  let doc =
    match Json.parse (In_channel.with_open_text out In_channel.input_all) with
    | Ok doc -> (
      match Json.member "runs" doc with
      | Some (Json.Array [ run ]) -> Ok run
      | _ -> Error (out ^ ": no run"))
    | Error e -> Error (out ^ ": " ^ e)
    | exception Sys_error e -> Error e
  in
  (* Exit codes 1 and 2 are the child's verdict on a run it reported; any
     other failure means the child did not finish. *)
  match (status, doc) with
  | Unix.WEXITED ((0 | 1 | 2) as code), Ok run -> (code, Ok run)
  | Unix.WEXITED code, _ ->
    (1, Error (Printf.sprintf "%s: child exited %d without a result" w.Load.name code))
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    (1, Error (Printf.sprintf "%s: child killed by signal %d" w.Load.name s))

let run_command opts =
  let opt k d = Option.value ~default:d (List.assoc_opt k opts) in
  let number parse k d =
    match parse (opt k d) with
    | Some v when v > 0 || k = "seed" -> v
    | _ ->
      Printf.eprintf "perf: bad --%s\n" k;
      usage ()
  in
  let seed = number int_of_string_opt "seed" "1" in
  let seconds =
    float_of_int (number int_of_string_opt "seconds" (string_of_int default_seconds))
  in
  let trace = opt "trace" "0" in
  let quick = List.mem_assoc "quick" opts in
  let selected =
    match opt "workload" "all" with
    | "all" -> workloads
    | name -> (
      match List.find_opt (fun (w : Load.t) -> w.Load.name = name) workloads with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "perf: unknown workload %S\n" name;
        usage ())
  in
  if quick then begin
    let declared = match List.assoc_opt "bench" opts with Some f -> check_declared f | None -> [] in
    List.iter (fun p -> Printf.eprintf "perf: %s\n" p) declared;
    let results = List.map (fun w -> smoke w ~seed) selected in
    let attempted = List.fold_left (fun acc (n, _) -> acc + n) 0 results in
    let failed = List.length declared + List.fold_left (fun acc (_, p) -> acc + List.length p) 0 results in
    result_line ~correct:(failed = 0) ~attempted ~failed (Json.Object []);
    exit (if failed = 0 then 0 else 1)
  end;
  match selected with
  | [ w ] ->
    let r = run_workload w ~seed ~seconds ~trace ~quick:false in
    let out =
      opt "out"
        (Filename.concat Load.out_dir
           (Printf.sprintf "%s-seed%d%s.json" w.Load.name seed (if r.traced then "-trace" else "")))
    in
    write_json out (Json.Object [ ("runs", Json.Array [ report_json r ]) ]);
    print_report r;
    result_line ~correct:(r.failures = []) ~attempted:r.attempted
      ~failed:(List.length r.failures) (metrics_json r.metrics);
    exit (exit_code r)
  | ws ->
    let children = List.map (fun w -> child_run w ~seed ~seconds ~trace) ws in
    let runs = List.filter_map (fun (_, doc) -> Result.to_option doc) children in
    let lost = List.filter_map (fun (_, doc) -> match doc with Error e -> Some e | Ok _ -> None) children in
    List.iter (fun e -> Printf.eprintf "perf: %s\n" e) lost;
    let out = opt "out" (Filename.concat Load.out_dir (Printf.sprintf "all-seed%d.json" seed)) in
    write_json out (Json.Object [ ("runs", Json.Array runs) ]);
    let num k r = Option.value ~default:0. (Option.bind (Json.member k r) Json.to_float) in
    let attempted = List.fold_left (fun acc r -> acc +. num "attempted" r) 0. runs in
    let failed = List.fold_left (fun acc r -> acc +. num "failed" r) 0. runs in
    let metrics =
      List.concat_map
        (fun r ->
          match (Json.member "workload" r, Json.member "metrics" r) with
          | Some (Json.String w), Some (Json.Object ms) ->
            List.map (fun (k, v) -> (w ^ "." ^ k, v)) ms
          | _ -> [])
        runs
    in
    (* A failed check (1) outranks an invalid open-loop run (2). *)
    let codes = List.map fst children in
    let code = if List.mem 1 codes then 1 else List.fold_left max 0 codes in
    result_line
      ~correct:(failed = 0. && lost = [])
      ~attempted:(max 1 (int_of_float attempted))
      ~failed:(int_of_float failed + List.length lost)
      (Json.Object metrics);
    exit code

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_command (flags [] rest)
  | "compare" :: rest -> exit (Compare.main rest)
  | _ -> usage ()
