(* The tacos command-line tool: synthesize topology-aware collective
   algorithms, inspect topologies, and compare against the baseline
   algorithms — the workflow of Fig. 3(b) as a CLI.

     tacos synthesize --topology mesh:3x3 --pattern all-gather --ten
     tacos compare --topology dgx1 --size 1GB
     tacos profile --topology mesh:4x4 --pattern all-reduce
     tacos faults --topology mesh:5x5 --fail-links 2 --seed 7
     tacos info --topology dragonfly:4x5 *)

open Cmdliner
open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Router = Tacos.Router
module Engine = Tacos_sim.Engine
module Sim_program = Tacos_sim.Program
module Algo = Tacos_baselines.Algo
module Units = Tacos_util.Units
module Table = Tacos_util.Table
module Json = Tacos_util.Json
module Obs = Tacos_obs.Obs
module Trace = Tacos_obs.Trace
module Chrome = Tacos_obs.Chrome
module Critpath = Tacos_obs.Critpath
module Fault = Tacos_resilience.Fault
module Resilience = Tacos_resilience.Resilience
module Plan = Tacos_groups.Plan
module Service = Tacos_serve.Service
module Sketch = Tacos_sketch.Sketch
module Strategy = Tacos_sketch.Strategy

(* --- common options ------------------------------------------------------ *)

let ( let* ) = Result.bind
let errorf fmt = Printf.ksprintf Result.error fmt

(* Counts: the integers from 1 up. *)
let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let topology_arg =
  let doc =
    "Target topology: ring:N, uniring:N, fc:N, mesh:AxB[xC], torus:AxB[xC], \
     hypercube:K, switch:N, dgx1, dragonfly[:GxM], rfs:RxFxS."
  in
  Arg.(value & opt string "mesh:3x3" & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

let alpha_arg =
  let doc = "Link latency alpha in microseconds." in
  Arg.(value & opt float 0.5 & info [ "alpha" ] ~docv:"US" ~doc)

let bw_arg =
  let doc = "Link bandwidth in GB/s (heterogeneous builders scale from it)." in
  Arg.(value & opt float 50. & info [ "bandwidth"; "bw" ] ~docv:"GBPS" ~doc)

let size_arg =
  let doc = "Collective size, e.g. 1GB, 64MB, 4KB." in
  Arg.(value & opt string "64MB" & info [ "s"; "size" ] ~docv:"SIZE" ~doc)

let pattern_arg =
  let doc = "Collective pattern: all-gather, reduce-scatter, all-reduce, broadcast[:ROOT], reduce[:ROOT]." in
  Arg.(value & opt string "all-reduce" & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc)

let chunks_arg =
  let doc = "Chunks per NPU (collective decomposition granularity)." in
  Arg.(value & opt positive 1 & info [ "c"; "chunks" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for the matching search." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let trials_arg =
  let doc = "Randomized synthesis restarts; the best schedule is kept." in
  Arg.(value & opt positive 1 & info [ "trials" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Parallel OCaml domains for synthesis: randomized trials and (with \
     --groups) per-phase sub-syntheses fan out on one shared worker pool. \
     Results are bit-identical to --domains 1."
  in
  Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"N" ~doc)

let candidates_arg doc =
  Arg.(
    value
    & opt (list positive) [ 1; 2; 4; 8; 16 ]
    & info [ "candidates" ] ~docv:"K1,K2,..." ~doc)

let groups_arg =
  let doc =
    "Hierarchical synthesis over process groups: partition the fabric by \
     hierarchy dimension $(docv) (or let 'auto' pick the bottleneck \
     dimension), synthesize intra-group and inter-group phases on the \
     sub-fabrics — isomorphic groups cost one synthesis — and compose one \
     full-fabric schedule."
  in
  Arg.(value & opt (some string) None & info [ "groups" ] ~docv:"DIM|auto" ~doc)

let sketch_arg =
  let doc =
    "Communication sketch file (JSON rules: forbid/prefer/pin/buddy) \
     constraining the synthesis; see the README's sketch section."
  in
  Arg.(value & opt (some string) None & info [ "sketch" ] ~docv:"FILE" ~doc)

(* --- shared argument terms ------------------------------------------------
   Each parses its flags into a [result]. A subcommand binds them with
   [let*] in the order topology, size, pattern, sketch, so the first bad
   argument is the one reported. *)

let topology =
  let parse s alpha_us bw_gbps =
    Parse.parse_topology ~alpha:(alpha_us *. 1e-6) ~bw:(Units.gbps bw_gbps) s
  in
  Term.(const parse $ topology_arg $ alpha_arg $ bw_arg)

(* A topology and a collective size. *)
let sized =
  let parse topo size =
    let* topo = topo in
    let* size = Parse.parse_size size in
    Ok (topo, size)
  in
  Term.(const parse $ topology $ size_arg)

(* A topology, a size and a pattern over its NPUs. *)
let workload =
  let parse sized pattern =
    let* topo, size = sized in
    let* pattern = Parse.parse_pattern pattern (Topology.num_npus topo) in
    Ok (topo, size, pattern)
  in
  Term.(const parse $ sized $ pattern_arg)

let spec_of topo ~size ~pattern chunks_per_npu =
  Spec.make ~chunks_per_npu ~buffer_size:size ~pattern ~npus:(Topology.num_npus topo) ()

(* [workload] as a collective spec with [--chunks] chunks per NPU. *)
let spec =
  let make workload chunks =
    let* topo, size, pattern = workload in
    Ok (topo, spec_of topo ~size ~pattern chunks)
  in
  Term.(const make $ workload $ chunks_arg)

let sketch =
  let load = function
    | None -> Ok None
    | Some path -> (
      match Sketch.of_file path with
      | Ok sk -> Ok (Some sk)
      | Error e -> errorf "--sketch %s: %s" path e)
  in
  Term.(const load $ sketch_arg)

(* The partition a [--groups] argument names, if any. *)
let groups_of topo ~sketch = function
  | None -> Ok None
  | Some _ when Option.is_some sketch -> Error "--sketch does not compose with --groups"
  | Some gstr -> (
    match
      Result.bind (Plan.grouping_of_string gstr) (Plan.decompose topo)
    with
    | Error e -> Error ("--groups: " ^ e)
    | Ok gs -> Ok (Some gs))

(* --- files and the error guard --------------------------------------------
   Every file the CLI reads or writes goes through [read_file],
   [open_output] or [write_file]. A [Sys_error] there becomes [File_error]
   with the message "cannot read|write FILE: REASON". *)

exception File_error of string

let file_error verb file reason =
  (* [Sys_error] messages usually start with the path itself. *)
  let prefix = file ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason (String.length prefix) (String.length reason - String.length prefix)
    else reason
  in
  raise (File_error (Printf.sprintf "cannot %s %s: %s" verb file reason))

let read_file file =
  try In_channel.with_open_bin file In_channel.input_all
  with Sys_error reason -> file_error "read" file reason

let open_output ?(append = false) ?(perm = 0o666) file =
  let mode = if append then Open_append else Open_trunc in
  try open_out_gen [ Open_wronly; Open_creat; Open_text; mode ] perm file
  with Sys_error reason -> file_error "write" file reason

let write_file file text =
  let oc = open_output file in
  try
    output_string oc text;
    close_out oc
  with Sys_error reason ->
    close_out_noerr oc;
    file_error "write" file reason

(* Write [text] to stdout for "-", else to the file [dest], announcing it
   as "WHAT written to FILE" when [what] is given. *)
let emit ?what dest text =
  match dest with
  | "-" -> print_string text
  | file ->
    write_file file text;
    Option.iter (fun what -> Format.printf "%s written to %s@." what file) what

(* The one error guard: a subcommand body's [Error], a synthesis that is
   stuck or unsupported, an infeasible sketch, or a file that cannot be
   read or written ends as "tacos: MESSAGE" (exit 124), never as an
   uncaught exception (exit 125). *)
let guard body =
  match body () with
  | Ok () -> `Ok ()
  | Error msg -> `Error (false, msg)
  | exception Synth.Stuck msg -> `Error (false, "synthesis stuck: " ^ msg)
  | exception Synth.Unsupported msg -> `Error (false, "unsupported: " ^ msg)
  | exception Sketch.Infeasible off ->
    `Error (false, "sketch infeasible: " ^ Sketch.offender_to_string off)
  | exception File_error msg -> `Error (false, msg)

(* --- synthesize ----------------------------------------------------------- *)

let synthesize_cmd =
  let render_ten =
    Arg.(value & flag & info [ "ten" ] ~doc:"Render the synthesized TEN grid (homogeneous topologies).")
  in
  let list_events =
    Arg.(value & flag & info [ "events" ] ~doc:"List every link-chunk match of the schedule.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the synthesized schedule as JSON to $(docv) ('-' for stdout).")
  in
  let svg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write a link-time Gantt chart of the schedule as SVG to $(docv).")
  in
  let program_of =
    Arg.(
      value
      & opt (some int) None
      & info [ "program" ] ~docv:"NPU"
          ~doc:"Print the lowered per-NPU send/recv program of $(docv).")
  in
  let run setup sketch seed trials domains groups ten events json svg program =
    guard @@ fun () ->
    let* topo, spec = setup in
    let* sketch = sketch in
    let* groups = groups_of topo ~sketch groups in
    let n = Topology.num_npus topo in
    let* () =
      match program with
      | Some npu when npu < 0 || npu >= n ->
        errorf "--program %d: no such NPU (the fabric has %d)" npu n
      | _ -> Ok ()
    in
    let pattern = spec.Spec.pattern and size = spec.buffer_size in
    let result, plan =
      match groups with
      | Some gs ->
        let plan = Plan.synthesize ~seed ~trials ~domains topo spec ~groups:gs in
        (plan.result, Some plan)
      | None ->
        (* Compiling first surfaces a typed infeasibility (including
           routed patterns) before any matching work. *)
        let sketch = Option.map (Sketch.compile topo spec) sketch in
        (Router.synthesize_any ~seed ~trials ~domains ?sketch topo spec, None)
    in
    Format.printf "topology:        %a@." Topology.pp topo;
    Format.printf "collective:      %a@." Spec.pp spec;
    Option.iter
      (fun (p : Plan.t) ->
        Format.printf "groups:          %d x %d NPUs, %d syntheses, %d dedup hits@." p.groups
          p.group_size p.syntheses p.dedup_hits;
        List.iter
          (fun (i : Plan.phase_info) ->
            Format.printf "  %-21s %3d parts, %d synthesized, makespan %s, wall %s@." i.phase
              i.parts i.syntheses (Units.time_pp i.makespan) (Units.time_pp i.wall_seconds))
          p.phase_infos)
      plan;
    Format.printf "collective time: %s@." (Units.time_pp result.collective_time);
    Format.printf "bandwidth:       %s@."
      (Units.bandwidth_pp (size /. result.collective_time));
    Format.printf "sends:           %d over %d rounds (synthesized in %s)@."
      (Schedule.num_sends result.schedule)
      result.stats.rounds
      (Units.time_pp result.stats.wall_seconds);
    (match Synth.verify topo result with
    | Ok () -> Format.printf "validation:      ok (congestion-free, postconditions met)@."
    | Error e -> Format.printf "validation:      FAILED: %s@." e);
    (match sketch with
    | Some sk -> (
      match Sketch.compliant topo spec sk result.schedule with
      | Ok () ->
        Format.printf "sketch:          ok (%d rules, schedule compliant)@."
          (List.length sk.rules)
      | Error e -> Format.printf "sketch:          VIOLATED: %s@." e)
    | None -> ());
    (match Ideal.all_reduce_time topo ~size with
    | ideal when pattern = Pattern.All_reduce ->
      Format.printf "vs ideal:        %.2f%%@." (100. *. ideal /. result.collective_time)
    | _ | (exception _) -> ());
    if events then Schedule.pp_events Format.std_formatter result.schedule;
    Option.iter
      (fun file ->
        write_file file (Svg.render topo result.schedule);
        Format.printf "SVG written to %s@." file)
      svg;
    Option.iter
      (fun npu ->
        Format.printf "program of NPU %d:@." npu;
        Lowering.pp_program Format.std_formatter
          (Lowering.npu_programs ~npus:n result.schedule).(npu))
      program;
    Option.iter
      (fun dest -> emit ~what:"schedule" dest (Schedule.to_json ~spec result.schedule))
      json;
    if ten then begin
      let cost =
        match Topology.edges topo with
        | e :: _ -> Link.cost e.link (Spec.chunk_size spec)
        | [] -> 0.
      in
      match Tacos_ten.Ten.of_schedule topo ~span_cost:cost result.schedule with
      | ten -> print_string (Tacos_ten.Ten.render ten)
      | exception Invalid_argument _ ->
        print_endline "(TEN grid unavailable: heterogeneous topology or composite schedule)"
    end;
    Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ spec $ sketch $ seed_arg $ trials_arg $ domains_arg $ groups_arg
       $ render_ten $ list_events $ json_out $ svg_out $ program_of))
  in
  Cmd.v (Cmd.info "synthesize" ~doc:"Synthesize a topology-aware collective algorithm") term

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let run sized chunks seed trials =
    guard @@ fun () ->
    let* topo, size = sized in
    let n = Topology.num_npus topo in
    let spec = spec_of topo ~size ~pattern:Pattern.All_reduce in
    let power_of_two = n land (n - 1) = 0 in
    let baselines =
      [ ("Ring", Algo.ring); ("Direct", Algo.Direct) ]
      @ (if power_of_two then [ ("RHD", Algo.Rhd); ("DBT", Algo.Dbt) ] else [])
      @ [ ("TACCL-like", Algo.Taccl_like) ]
    in
    let row name t = [ name; Units.time_pp t; Units.bandwidth_pp (size /. t) ] in
    let rows =
      List.map
        (fun (name, algo) ->
          match Algo.collective_time algo topo (spec 1) with
          | t -> row name t
          | exception _ -> [ name; "n/a"; "n/a" ])
        baselines
    in
    let t = Tacos.Tuner.simulated_time topo (Synth.synthesize ~seed ~trials topo (spec chunks)) in
    Format.printf "All-Reduce of %s on %a@." (Units.bytes_pp size) Topology.pp topo;
    Table.print ~header:[ "Algorithm"; "Time"; "Bandwidth" ]
      (rows @ [ row "TACOS" t; row "Ideal" (Ideal.all_reduce_time topo ~size) ]);
    Ok ()
  in
  let term = Term.(ret (const run $ sized $ chunks_arg $ seed_arg $ trials_arg)) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare TACOS against the baseline All-Reduce algorithms")
    term

(* --- tune ------------------------------------------------------------------ *)

let tune_cmd =
  let run workload sketch seed domains candidates groups =
    guard @@ fun () ->
    let* topo, size, pattern = workload in
    let* sketch = sketch in
    let* groups = groups_of topo ~sketch groups in
    let* () = if candidates = [] then Error "--candidates: the list is empty" else Ok () in
    (* With --groups, every candidate granularity is synthesized
       hierarchically through the group planner. *)
    let synthesize =
      match (groups, sketch) with
      | Some gs, _ ->
        Some (fun ~seed topo spec -> (Plan.synthesize ~seed ~domains topo spec ~groups:gs).result)
      | None, Some sk ->
        Some
          (fun ~seed topo spec ->
            (* Per candidate: pin chunk ids are validated against each
               candidate's own chunk space. *)
            let c = Sketch.compile topo spec sk in
            Synth.synthesize ~seed ~domains ~sketch:c topo spec)
      | None, None -> None
    in
    let choices =
      Tacos.Tuner.sweep ~seed ~domains ~candidates ?synthesize topo ~pattern ~size
    in
    let best = Tacos.Tuner.best choices in
    Format.printf "%s of %s on %a@." (Pattern.name pattern) (Units.bytes_pp size)
      Topology.pp topo;
    Table.print ~header:[ "chunks/NPU"; "simulated time"; "bandwidth" ]
      (List.map
         (fun (c : Tacos.Tuner.choice) ->
           [
             string_of_int c.chunks_per_npu;
             Units.time_pp c.simulated_time;
             Units.bandwidth_pp (size /. c.simulated_time);
           ])
         choices);
    Format.printf "best: %d chunks/NPU (%s)@." best.chunks_per_npu
      (Units.time_pp best.simulated_time);
    Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ workload $ sketch $ seed_arg $ domains_arg
       $ candidates_arg "Chunks-per-NPU granularities to try." $ groups_arg))
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Sweep chunk granularities and report the fastest")
    term

(* --- pareto ---------------------------------------------------------------- *)

let pareto_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full outcome (every point, the frontier, and the \
             dominated pairs) as one JSON document on stdout.")
  in
  let run workload sketch seed trials domains candidates json =
    guard @@ fun () ->
    let* topo, size, pattern = workload in
    let* sketch = sketch in
    match Strategy.sweep ~seed ~trials ~domains ~candidates ?sketch topo ~pattern ~size with
    | exception Invalid_argument msg -> Error msg
    | outcome ->
      if json then print_endline (Strategy.to_json outcome)
      else begin
        Format.printf "%s of %s on %a — latency/bandwidth tradeoffs@." (Pattern.name pattern)
          (Units.bytes_pp size) Topology.pp topo;
        let on_frontier p = List.memq p outcome.frontier in
        Table.print
          ~header:
            [ "chunks/NPU"; "steps"; "sends"; "collective"; "simulated"; "synth wall"; "frontier" ]
          (List.map
             (fun (p : Strategy.point) ->
               [
                 string_of_int p.chunks_per_npu;
                 string_of_int p.steps;
                 string_of_int p.sends;
                 Units.time_pp p.collective_time;
                 Units.time_pp p.simulated_time;
                 Units.time_pp p.synthesis_seconds;
                 (if on_frontier p then "*" else "dominated");
               ])
             outcome.points);
        Format.printf
          "frontier: %d of %d points non-dominated over (chunks, steps, simulated time)@."
          (List.length outcome.frontier)
          (List.length outcome.points)
      end;
      Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ workload $ sketch $ seed_arg $ trials_arg $ domains_arg
       $ candidates_arg "Chunks-per-NPU granularities to sweep." $ json_flag))
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:
         "Sweep chunk granularities (optionally under a communication sketch) \
          and report the latency/bandwidth Pareto frontier")
    term

(* --- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSON profile to $(docv) ('-' for stdout).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Include the full per-transfer lifecycle in the output, under \
             $(b,lifecycle) (schema documented in Tacos_obs.Trace).")
  in
  let run setup seed trials out trace =
    guard @@ fun () ->
    let* topo, spec = setup in
    (* Everything below runs with the obs registry on: synthesis populates
       the synth.*/router.* metrics, and replaying the schedule under the
       congestion-aware simulator populates the engine.* queueing
       metrics. *)
    Obs.enable ();
    Obs.reset ();
    if trace then begin
      Trace.enable ();
      Trace.reset ()
    end;
    let result = Router.synthesize_any ~seed ~trials topo spec in
    let sim = Tacos.Tuner.replay topo result in
    let snap = Obs.snapshot () in
    let memo_hits = Obs.value (Obs.counter "synth.memo_hits") in
    let scans = Obs.value (Obs.counter "synth.pick_scans") in
    let memo_hit_rate =
      if memo_hits + scans = 0 then 0.
      else float_of_int memo_hits /. float_of_int (memo_hits + scans)
    in
    let num f = Json.Number f in
    let int i = num (float_of_int i) in
    let doc =
      Json.Object
        ([
           ("topology", Json.String (Topology.name topo));
           ("npus", int (Topology.num_npus topo));
           ("links", int (Topology.num_links topo));
           ("pattern", Json.String (Pattern.name spec.pattern));
           ("buffer_bytes", num spec.buffer_size);
           ("chunks_per_npu", int spec.chunks_per_npu);
           ("seed", int seed);
           ("trials", int trials);
           ("collective_time_seconds", num result.collective_time);
           ("simulated_time_seconds", num sim.finish_time);
           ("synthesis_wall_seconds", num result.stats.wall_seconds);
           ("rounds", int result.stats.rounds);
           ("matches", int result.stats.matches);
           ("derived", Json.Object [ ("memo_hit_rate", num memo_hit_rate) ]);
           ("obs", snap);
         ]
        @
        if trace then [ ("lifecycle", Trace.to_json (Trace.dump ())) ] else [])
    in
    emit ~what:"profile" out (Json.encode doc ^ "\n");
    Ok ()
  in
  let term =
    Term.(ret (const run $ spec $ seed_arg $ trials_arg $ out_arg $ trace_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Synthesize with the observability registry enabled and emit a JSON \
          profile (counters, histograms, timers, queueing metrics)")
    term

(* --- faults ----------------------------------------------------------------- *)

(* [f] over [xs], up to the first error. *)
let map_result f xs =
  Result.map List.rev
    (List.fold_left
       (fun acc x ->
         let* ys = acc in
         let* y = f x in
         Ok (y :: ys))
       (Ok []) xs)

(* "--at 40%" resolves against the healthy schedule's simulated completion
   time; "--at 0.0012" is absolute seconds. *)
let parse_at s =
  let s = String.trim s in
  let pct = String.length s > 1 && s.[String.length s - 1] = '%' in
  let body = if pct then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt body with
  | None -> Error (Printf.sprintf "bad fault time %S (seconds or N%%)" s)
  | Some v when v < 0. -> Error "fault time must be non-negative"
  | Some v -> Ok (if pct then `Fraction (v /. 100.) else `Seconds v)

(* An explicit per-epoch fault list: comma-separated kill-link=N, kill-npu=N,
   degrade=NxF tokens, as in "--at 40%:kill-link=3,degrade=7x2". *)
let parse_fault_spec s =
  let parse_token tok =
    let sub_after i = String.sub tok (i + 1) (String.length tok - i - 1) in
    match String.index_opt tok '=' with
    | Some i when String.sub tok 0 i = "kill-link" -> (
      match int_of_string_opt (sub_after i) with
      | Some n -> Ok (Fault.Kill_link n)
      | None -> Error (Printf.sprintf "bad link id in %S" tok))
    | Some i when String.sub tok 0 i = "kill-npu" -> (
      match int_of_string_opt (sub_after i) with
      | Some n -> Ok (Fault.Kill_npu n)
      | None -> Error (Printf.sprintf "bad NPU id in %S" tok))
    | Some i when String.sub tok 0 i = "degrade" -> (
      let v = sub_after i in
      match String.index_opt v 'x' with
      | Some j -> (
        match
          ( int_of_string_opt (String.sub v 0 j),
            float_of_string_opt (String.sub v (j + 1) (String.length v - j - 1)) )
        with
        | Some link, Some factor -> Ok (Fault.Degrade_link { link; factor })
        | _ -> Error (Printf.sprintf "bad degrade spec %S (want degrade=NxF)" tok))
      | None -> Error (Printf.sprintf "bad degrade spec %S (want degrade=NxF)" tok))
    | _ ->
      Error
        (Printf.sprintf
           "bad fault spec %S (kill-link=N, kill-npu=N or degrade=NxF)" tok)
  in
  map_result (fun tok -> parse_token (String.trim tok)) (String.split_on_char ',' s)

(* One "--at T[:SPEC]" event: the time, plus its own fault list when the
   colon form is used (required when giving a multi-epoch timeline). *)
let parse_event s =
  match String.index_opt s ':' with
  | None -> Result.map (fun at -> (at, None)) (parse_at s)
  | Some i ->
    let* at = parse_at (String.sub s 0 i) in
    let* faults = parse_fault_spec (String.sub s (i + 1) (String.length s - i - 1)) in
    Ok (at, Some faults)

let resolve_at healthy_time = function
  | `Seconds v -> v
  | `Fraction f -> f *. healthy_time

let invalid_note (r : Resilience.repaired) =
  match r.verified with Ok () -> "" | Error e -> Printf.sprintf " [INVALID: %s]" e

let print_faults faults =
  if faults = [] then Format.printf "faults:       none@."
  else List.iter (fun f -> Format.printf "fault:        %a@." Fault.pp f) faults

(* The healthy schedule that faults land on. Its two errors keep their
   own wording. *)
let healthy_schedule ~seed ~trials topo spec =
  match Synth.synthesize ~seed ~trials topo spec with
  | exception Synth.Stuck msg -> errorf "healthy synthesis stuck: %s" msg
  | exception Synth.Unsupported msg ->
    errorf "--at needs a synthesizer-supported pattern: %s" msg
  | healthy -> Ok healthy

(* Write a fault report: the fields every report opens with, then [fields]. *)
let emit_report ~seed topo (spec : Spec.t) fields dest =
  let head =
    [
      ("topology", Json.String (Topology.name topo));
      ("pattern", Json.String (Pattern.name spec.pattern));
      ("buffer_bytes", Json.Number spec.buffer_size);
      ("seed", Json.Number (float_of_int seed));
    ]
  in
  emit ~what:"report" dest (Json.encode (Json.Object (head @ fields)) ^ "\n")

let repaired_fields (r : Resilience.repaired) =
  [
    ("strategy", Json.String (Resilience.strategy_name r.strategy));
    ("completion_seconds", Json.Number r.completion_time);
    ("synth_wall_seconds", Json.Number r.synth_wall_seconds);
    ("verified", Json.Bool (Result.is_ok r.verified));
  ]

(* The mid-flight three-way comparison: replay-through-the-fault vs suffix
   repair vs full re-synthesis, all timed from the same fault instant. *)
let midflight_run ~seed ~trials ~domains ~budget ~json topo spec faults at_spec =
  let* healthy = healthy_schedule ~seed ~trials topo spec in
  let healthy_time = Tacos.Tuner.simulated_time topo healthy in
  let at = resolve_at healthy_time at_spec in
  Format.printf "healthy:      %s simulated; fault lands at %s@."
    (Units.time_pp healthy_time) (Units.time_pp at);
  let replay =
    match Tacos.Tuner.replay ~faults:(Fault.timeline ~at topo faults) topo healthy with
    | { stranded = []; finish_time; _ } -> Ok finish_time
    | { stranded; _ } -> Error (Printf.sprintf "%d transfers stranded" (List.length stranded))
    | exception (Engine.Simulation_error _ as e) -> Error (Printexc.to_string e)
  in
  (match replay with
  | Ok t ->
    Format.printf "replay:       %s (reroute in the engine, no re-planning)@." (Units.time_pp t)
  | Error why -> Format.printf "replay:       FAILS — %s@." why);
  let repair = Resilience.repair ~seed ~trials ~domains ?budget_ms:budget ~at topo faults healthy in
  (match repair with
  | Ok r ->
    Format.printf "repair:       %s via %s (synthesized in %s)%s@."
      (Units.time_pp r.completion_time) (Resilience.strategy_name r.strategy)
      (Units.time_pp r.synth_wall_seconds) (invalid_note r)
  | Error f -> Format.printf "repair:       NONE — %a@." Resilience.pp_failure f);
  let full = Resilience.synthesize ~seed ~trials ~domains ?budget_ms:budget ~faults topo spec in
  (match full with
  | Ok o ->
    Format.printf "resynthesis:  %s (full, synthesized in %s)@."
      (Units.time_pp (at +. o.simulated_time)) (Units.time_pp o.wall_seconds)
  | Error f -> Format.printf "resynthesis:  NONE — %a@." Resilience.pp_failure f);
  (match (repair, full) with
  | Ok r, Ok o when r.synth_wall_seconds > 0. ->
    Format.printf "speedup:      %.1fx less synthesis wall-clock from repairing@."
      (o.wall_seconds /. r.synth_wall_seconds)
  | _ -> ());
  Option.iter
    (emit_report ~seed topo spec
       [
         ("at_seconds", Json.Number at);
         ("healthy_seconds", Json.Number healthy_time);
         ("faults", Json.Array (List.map Fault.to_json faults));
         ( "replay",
           Json.Object
             (match replay with
             | Ok t -> [ ("completion_seconds", Json.Number t) ]
             | Error why -> [ ("stranded", Json.String why) ]) );
         ( "repair",
           match repair with
           | Ok r -> Json.Object (repaired_fields r)
           | Error f -> Resilience.failure_to_json f );
         ( "full_resynthesis",
           match full with
           | Ok o ->
             Json.Object
               [
                 ("completion_seconds", Json.Number (at +. o.simulated_time));
                 ("synth_wall_seconds", Json.Number o.wall_seconds);
               ]
           | Error f -> Resilience.failure_to_json f );
       ])
    json;
  Ok ()

(* A multi-epoch fault timeline: each "--at T:SPEC" lands its own fault list
   mid-flight and the composite is incrementally re-repaired at every epoch
   (Resilience.repair_timeline). *)
let multiflight_run ~seed ~trials ~domains ~budget ~json topo spec events_spec =
  let* healthy = healthy_schedule ~seed ~trials topo spec in
  let healthy_time = Tacos.Tuner.simulated_time topo healthy in
  let events =
    List.map (fun (at_spec, faults) -> (resolve_at healthy_time at_spec, faults)) events_spec
  in
  Format.printf "healthy:      %s simulated; %d fault epochs@." (Units.time_pp healthy_time)
    (List.length events);
  List.iter
    (fun (at, faults) ->
      Format.printf "epoch:        %s — %s@." (Units.time_pp at)
        (String.concat ", " (List.map Fault.to_string faults)))
    events;
  match
    Resilience.repair_timeline ~seed ~trials ~domains ?budget_ms:budget ~events topo healthy
  with
  | exception Invalid_argument msg -> Error msg
  | Error f -> errorf "timeline repair failed: %s" (Format.asprintf "%a" Resilience.pp_failure f)
  | Ok tr ->
    List.iter
      (fun ({ at; repaired = r; _ } : Resilience.epoch) ->
        Format.printf "repair @@ %s: %s → completes %s (synthesized in %s)%s@." (Units.time_pp at)
          (Resilience.strategy_name r.strategy) (Units.time_pp r.completion_time)
          (Units.time_pp r.synth_wall_seconds) (invalid_note r))
      tr.epochs;
    Format.printf "final:        %s, %d sends, %s@." (Units.time_pp tr.completion_time)
      (Schedule.num_sends tr.schedule)
      (match tr.verified with
      | Ok () -> "composite verified end to end"
      | Error e -> "INVALID: " ^ e);
    let epoch ({ at; faults; repaired } : Resilience.epoch) =
      Json.Object
        (("at_seconds", Json.Number at)
        :: ("faults", Json.Array (List.map Fault.to_json faults))
        :: repaired_fields repaired)
    in
    Option.iter
      (emit_report ~seed topo spec
         [
           ("healthy_seconds", Json.Number healthy_time);
           ("epochs", Json.Array (List.map epoch tr.epochs));
           ("completion_seconds", Json.Number tr.completion_time);
           ("sends", Json.Number (float_of_int (Schedule.num_sends tr.schedule)));
           ("verified", Json.Bool (Result.is_ok tr.verified));
         ])
      json;
    Ok ()

let faults_cmd =
  let fail_links_arg =
    Arg.(
      value & opt int 0
      & info [ "fail-links" ] ~docv:"K" ~doc:"Kill $(docv) random links.")
  in
  let fail_npus_arg =
    Arg.(
      value & opt int 0
      & info [ "fail-npus" ] ~docv:"K"
          ~doc:"Kill $(docv) random NPUs (all their incident links fail).")
  in
  let degrade_arg =
    Arg.(
      value & opt int 0
      & info [ "degrade" ] ~docv:"K"
          ~doc:"Degrade $(docv) random links (bandwidth divided, latency \
                multiplied by the factor).")
  in
  let degrade_factor_arg =
    Arg.(
      value & opt float 4.
      & info [ "degrade-factor" ] ~docv:"F"
          ~doc:"Degradation severity for $(b,--degrade) (default 4x).")
  in
  let budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget for the reseeded-retry rung of the \
                fallback ladder.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the structured fault report as JSON to $(docv) ('-' \
                for stdout).")
  in
  let at_arg =
    Arg.(
      value & opt_all string []
      & info [ "at" ] ~docv:"T[:SPEC]"
          ~doc:"Land faults mid-flight at $(docv) (seconds, or N% of the \
                healthy schedule's simulated time). Given once without a \
                spec, the randomly sampled faults land there and \
                replay-through-the-fault, incremental repair and full \
                re-synthesis are compared. Repeat with explicit per-epoch \
                fault specs — e.g. --at 30%:kill-link=3 --at \
                60%:kill-npu=2,degrade=7x4 — to repair a whole fault \
                timeline incrementally, epoch by epoch.")
  in
  let run setup seed trials domains fail_links fail_npus degrade degrade_factor budget
      at_strs json =
    guard @@ fun () ->
    let* topo, spec = setup in
    let header () =
      Format.printf "topology:     %a@." Topology.pp topo;
      Format.printf "collective:   %a@." Spec.pp spec
    in
    (* Deterministic fault set from one seed: kills, NPU kills, then
       degradations, all drawn from the same stream. *)
    let rng = Tacos_util.Rng.create seed in
    let* faults =
      match
        let kills = Fault.random_link_kills rng topo fail_links in
        let npus = Fault.random_npu_kills rng topo fail_npus in
        let slow = Fault.random_degradations rng ~factor:degrade_factor topo degrade in
        kills @ npus @ slow
      with
      | exception Invalid_argument msg -> Error msg
      | faults -> Ok faults
    in
    if at_strs <> [] then begin
      let* events = map_result parse_event at_strs in
      match events with
      | [ (at_spec, None) ] ->
        (* Legacy single-event form: the sampled faults land at T. *)
        header ();
        print_faults faults;
        midflight_run ~seed ~trials ~domains ~budget ~json topo spec faults at_spec
      | events when List.exists (fun (_, fs) -> fs = None) events ->
        Error
          "a fault timeline needs each --at to carry its faults: --at \
           T:kill-link=N,..."
      | _ when faults <> [] ->
        Error
          "--fail-links/--fail-npus/--degrade cannot combine with an explicit \
           --at T:SPEC timeline"
      | events ->
        header ();
        multiflight_run ~seed ~trials ~domains ~budget ~json topo spec
          (List.map (fun (at, fs) -> (at, Option.get fs)) events)
    end
    else begin
      Obs.enable ();
      Obs.reset ();
      header ();
      print_faults faults;
      let degraded = Fault.apply topo faults in
      Format.printf "degraded:     %a@." Topology.pp degraded;
      let connectivity = Fault.connectivity degraded in
      Format.printf "connectivity: %a@." Fault.pp_connectivity connectivity;
      (* The whole pipeline: fallback-ladder synthesis on the degraded
         fabric, then — when faults were injected — the degradation
         analysis of the healthy schedule. *)
      let outcome = Resilience.synthesize ~seed ~trials ?budget_ms:budget ~faults topo spec in
      (match outcome with
      | Ok o ->
        (match o.plan with
        | Resilience.Synthesized result ->
          Format.printf "plan:         synthesized (%d sends, makespan %s)@."
            (Schedule.num_sends result.schedule) (Units.time_pp result.collective_time);
          (match Synth.verify degraded result with
          | Ok () -> Format.printf "validation:   ok (congestion-free, postconditions met)@."
          | Error e -> Format.printf "validation:   FAILED: %s@." e)
        | Resilience.Baseline { algo; _ } ->
          Format.printf "plan:         fallback baseline %s@." (Algo.name algo));
        Format.printf "simulated:    %s (%s)@." (Units.time_pp o.simulated_time)
          (Units.bandwidth_pp (spec.buffer_size /. o.simulated_time));
        if o.retries > 0 then Format.printf "retries:      %d@." o.retries;
        Format.printf "ladder:       %s@." (String.concat " -> " o.rungs)
      | Error f -> Format.printf "plan:         NONE — %a@." Resilience.pp_failure f);
      (* Healthy-vs-degraded: what re-synthesis buys over replaying the
         healthy schedule (only meaningful with faults and a
         synthesizer-supported pattern). *)
      let analysis =
        if faults = [] then None
        else
          match healthy_schedule ~seed ~trials topo spec with
          | Ok healthy -> Some (Resilience.analyze ~seed ~trials topo faults healthy)
          | Error _ -> None
      in
      Option.iter
        (fun (a : Resilience.analysis) ->
          Format.printf "healthy plan: %s on the degraded fabric@."
            (Resilience.health_to_string a.health);
          (match (a.replay_time, a.resynth_time) with
          | Some replay, Some resynth ->
            Format.printf "replay:       %s; re-synthesis: %s@." (Units.time_pp replay)
              (Units.time_pp resynth)
          | _ -> ());
          Option.iter (Format.printf "advantage:    %.2fx from re-synthesis@.") a.advantage)
        analysis;
      Format.printf "fallback counters:@.";
      List.iter
        (fun name -> Format.printf "  %-32s %d@." name (Obs.value (Obs.counter name)))
        [
          "resilience.synth_ok";
          "resilience.synth_retries";
          "resilience.fallback_baseline";
          "resilience.failures";
          "resilience.disconnected_inputs";
        ];
      Option.iter
        (emit_report ~seed topo spec
           [
             ("faults", Json.Array (List.map Fault.to_json faults));
             ( "connectivity",
               Json.String (Format.asprintf "%a" Fault.pp_connectivity connectivity) );
             ( "outcome",
               match outcome with
               | Ok o ->
                 Json.Object
                   [
                     ( "plan",
                       Json.String
                         (match o.plan with
                         | Resilience.Synthesized _ -> "synthesized"
                         | Resilience.Baseline { algo; _ } -> "baseline " ^ Algo.name algo) );
                     ("simulated_seconds", Json.Number o.simulated_time);
                     ("retries", Json.Number (float_of_int o.retries));
                     ("ladder", Json.Array (List.map (fun r -> Json.String r) o.rungs));
                   ]
               | Error f -> Resilience.failure_to_json f );
             ("obs", Obs.snapshot ());
           ])
        json;
      Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const run $ spec $ seed_arg $ trials_arg $ domains_arg $ fail_links_arg
       $ fail_npus_arg $ degrade_arg $ degrade_factor_arg $ budget_arg $ at_arg
       $ json_out))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject deterministic link/NPU faults and synthesize on the broken \
          fabric via the graceful-degradation fallback ladder (never an \
          uncaught exception)")
    term

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace-event JSON to $(docv) ('-' for stdout).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Show the $(docv) links carrying the most critical-path time.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate an existing Chrome trace-event JSON file (structure, \
             monotone timestamps, balanced async pairs) and exit; all other \
             options are ignored.")
  in
  (* 40-bin ASCII Gantt of one link's busy intervals over [0, span]. *)
  let gantt span intervals =
    let bins = 40 in
    if span <= 0. then String.make bins ' '
    else begin
      let busy =
        Tacos_util.Timeline.binned_busy ~bins ~span (fun f ->
            List.iter (fun (s, e) -> f s e) intervals)
      in
      let w = span /. float_of_int bins in
      String.init bins (fun i ->
          let frac = busy.(i) /. w in
          if frac >= 0.75 then '#'
          else if frac >= 0.25 then '+'
          else if frac > 0. then '.'
          else ' ')
    end
  in
  let validate file =
    let* doc =
      Result.map_error (Printf.sprintf "%s: not JSON: %s" file) (Json.parse (read_file file))
    in
    let* () = Result.map_error (Printf.sprintf "%s: INVALID: %s" file) (Chrome.validate doc) in
    Format.printf "%s: valid Chrome trace-event JSON@." file;
    Ok ()
  in
  let share (cp : Critpath.t) v =
    Table.cell_percent (if cp.makespan > 0. then v /. cp.makespan else 0.)
  in
  let sum cats = List.fold_left (fun acc (_, w) -> acc +. w) 0. cats in
  let run setup seed trials out top validate_file =
    guard @@ fun () ->
    match validate_file with
    | Some file -> validate file
    | None -> (
      let* topo, spec = setup in
      Trace.enable ();
      Trace.reset ();
      let result = Router.synthesize_any ~seed ~trials topo spec in
      (* Transfer tags carry the collective phase ("phase:chunkN") so the
         analyzer can attribute the makespan per phase. *)
      let tag_of =
        match result.phases with
        | Some (rs, _) ->
          fun (s : Schedule.send) ->
            Printf.sprintf "%s:chunk%d" (Schedule.phase_of_send ~reduce_scatter:rs s) s.chunk
        | None ->
          let name = Pattern.name spec.pattern in
          fun (s : Schedule.send) -> Printf.sprintf "%s:chunk%d" name s.chunk
      in
      let program =
        Sim_program.of_schedule ~tag_of ~chunk_size:(Spec.chunk_size spec) result.schedule
      in
      let sim = Engine.run topo program in
      let d = Trace.dump () in
      let transfers = Sim_program.transfers program in
      let phase_of tid =
        let tag = transfers.(tid).tag in
        match String.index_opt tag ':' with
        | Some i -> String.sub tag 0 i
        | None -> tag
      in
      let link_label l =
        let e = Topology.edge topo l in
        Printf.sprintf "link %d (%d->%d)" l e.src e.dst
      in
      let transfer_label tid = Printf.sprintf "t%d %s" tid transfers.(tid).tag in
      let doc = Chrome.export ~link_label ~transfer_label ~num_links:(Topology.num_links topo) d in
      match Chrome.validate doc with
      | Error e -> errorf "internal: emitted trace fails validation: %s" e
      | Ok () ->
        emit out (Json.encode doc ^ "\n");
        Format.printf "topology:        %a@." Topology.pp topo;
        Format.printf "collective:      %a@." Spec.pp spec;
        Format.printf "simulated time:  %s@." (Units.time_pp sim.finish_time);
        Format.printf "trace:           %d events, %d spans%s@." (List.length d.events)
          (List.length d.spans)
          (if d.dropped > 0 then
             Printf.sprintf " (%d dropped at the buffer cap)" d.dropped
           else "");
        (match Critpath.analyze ~phase_of d.events with
        | None -> Format.printf "critical path:   (no completed transfers)@."
        | Some cp ->
          Format.printf "critical path:   ends at t%d; %s attributed of %s makespan@."
            cp.critical_transfer
            (Units.time_pp (Critpath.attributed_total cp))
            (Units.time_pp cp.makespan);
          Table.print
            ~header:[ "where the time went"; "seconds"; "share" ]
            (List.map
               (fun (c, v) -> [ Critpath.category_name c; Units.time_pp v; share cp v ])
               cp.totals);
          if cp.per_phase <> [] then begin
            Format.printf "per collective phase:@.";
            Table.print
              ~header:[ "phase"; "seconds"; "share" ]
              (List.map
                 (fun (phase, cats) -> [ phase; Units.time_pp (sum cats); share cp (sum cats) ])
                 cp.per_phase)
          end;
          let top_links = List.filteri (fun i _ -> i < top) cp.per_link in
          if top_links <> [] then begin
            Format.printf "top critical links (busy over [0, %s], # >=75%% busy):@."
              (Units.time_pp sim.finish_time);
            List.iter
              (fun (l, cats) ->
                Format.printf "  %-18s |%s| %s on path@." (link_label l)
                  (gantt sim.finish_time sim.link_intervals.(l))
                  (Units.time_pp (sum cats)))
              top_links
          end);
        if out <> "-" then
          Format.printf "trace written to %s (load in Perfetto / chrome://tracing)@." out;
        Ok ())
  in
  let term =
    Term.(
      ret (const run $ spec $ seed_arg $ trials_arg $ out_arg $ top_arg $ validate_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the full per-transfer execution trace of a synthesized \
          schedule, write it as Chrome trace-event JSON (Perfetto), and print \
          the critical-path attribution of the makespan")
    term

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve line-framed JSON requests on stdin/stdout until EOF — the \
             transport tests and scripted transcripts use.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv), one thread per \
             connection, all sharing one schedule cache.")
  in
  let registry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "registry" ] ~docv:"DIR"
          ~doc:
            "Persist the schedule cache under $(docv) (crash-safe writes; \
             corrupt entries are quarantined to *.corrupt on load).")
  in
  let max_disk_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-disk-mb" ] ~docv:"MB"
          ~doc:
            "Cap the --registry disk store at $(docv) mebibytes: past it, \
             the oldest-mtime cache files are evicted after every write \
             (counted in stats and as tacos_registry_evicted_total).")
  in
  let queue_limit_arg =
    Arg.(
      value & opt positive 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Max in-flight requests before load is shed with structured \
             'overloaded' responses.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline for requests that carry none; past \
             it the server degrades to the best feasible baseline \
             (degraded:true) instead of overrunning.")
  in
  let metrics_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"PATH"
          ~doc:
            "Flush the Prometheus text exposition (the same document the \
             'metrics' verb serves) to $(docv) periodically and on exit; \
             written atomically (temp file + rename) so scrapers never see \
             a torn file. Each flush carries the monotonic \
             tacos_serve_uptime_seconds stamp.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "metrics-interval" ] ~docv:"SECS"
          ~doc:"Seconds between --metrics-file flushes.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:
            "Append one logfmt record per request (id, verb, outcome, \
             latency, deadline slack, bytes out, monotonic t= stamp) to \
             $(docv); '-' logs to stderr.")
  in
  let serve_loop svc ic oc =
    try
      while true do
        let line = input_line ic in
        if String.trim line <> "" then begin
          output_string oc (Service.handle_line svc line);
          output_char oc '\n';
          flush oc
        end
      done
    with End_of_file | Sys_error _ -> ()
  in
  let run stdio socket registry_dir max_disk_mb queue_limit deadline_ms
      metrics_file metrics_interval access_log seed trials domains =
    guard @@ fun () ->
    if (not stdio) && socket = None then
      Error "pass --stdio or --socket PATH (nothing to serve on)"
    else if metrics_interval <= 0. then Error "--metrics-interval must be positive"
    else if (match max_disk_mb with Some mb -> mb <= 0 | None -> false) then
      Error "--max-disk-mb must be positive"
    else if max_disk_mb <> None && registry_dir = None then
      Error "--max-disk-mb needs --registry DIR (nothing on disk to cap)"
    else begin
      (* The daemon keeps observability on for the metrics exposition and
         any profile taken against a long-running server. *)
      Obs.enable ();
      let access_sink, close_access =
        match access_log with
        | None -> (None, fun () -> ())
        | Some "-" -> (Some (fun line -> Printf.eprintf "%s\n%!" line), fun () -> ())
        | Some path ->
          let oc = open_output ~append:true ~perm:0o644 path in
          ( Some
              (fun line ->
                output_string oc line;
                output_char oc '\n';
                flush oc),
            fun () -> close_out_noerr oc )
      in
      let config =
        {
          Service.queue_limit;
          domains;
          trials;
          default_deadline_ms = deadline_ms;
          registry_dir;
          max_disk_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_disk_mb;
          seed;
          access_log = access_sink;
        }
      in
      let svc = Service.create ~config () in
      let flush_metrics () =
        match metrics_file with
        | None -> ()
        | Some path -> (
          let tmp = path ^ ".tmp" in
          try
            write_file tmp (Service.metrics svc);
            Sys.rename tmp path
          with File_error _ | Sys_error _ -> ())
      in
      if metrics_file <> None then
        ignore
          (Thread.create
             (fun () ->
               while true do
                 Thread.delay metrics_interval;
                 flush_metrics ()
               done)
             ());
      match socket with
      | None ->
        serve_loop svc stdin stdout;
        (* Short scripted transcripts end before the first periodic tick:
           flush once more so --metrics-file always has the final state. *)
        flush_metrics ();
        close_access ();
        Ok ()
      | Some path -> (
        (* A socket file left behind by a previous run would make bind fail
           with EADDRINUSE. Unlink it — but only if it actually is a
           socket: silently clobbering a regular file at that path would
           destroy user data. *)
        let stale =
          match Unix.lstat path with
          | { Unix.st_kind = Unix.S_SOCK; _ } -> Ok true
          | _ -> Error (Printf.sprintf "refusing to replace non-socket file %s" path)
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok false
        in
        match stale with
        | Error msg -> Error ("--socket: " ^ msg)
        | Ok was_stale ->
          if was_stale then begin
            Printf.eprintf "tacos serve: removing stale socket %s\n%!" path;
            try Unix.unlink path with Unix.Unix_error _ -> ()
          end;
          let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind sock (Unix.ADDR_UNIX path);
          Unix.listen sock 64;
          (* Clean shutdown (SIGINT/SIGTERM): remove the socket so the next
             start binds without finding our corpse, flush the final
             metrics snapshot, and close the access log. *)
          let cleanup () =
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            flush_metrics ();
            close_access ()
          in
          let on_signal _ =
            cleanup ();
            exit 0
          in
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
          Printf.eprintf "tacos serve: listening on %s\n%!" path;
          let rec accept_loop () =
            let conn, _ = Unix.accept sock in
            ignore
              (Thread.create
                 (fun conn ->
                   let ic = Unix.in_channel_of_descr conn in
                   let oc = Unix.out_channel_of_descr conn in
                   serve_loop svc ic oc;
                   try Unix.close conn with Unix.Unix_error _ -> ())
                 conn);
            accept_loop ()
          in
          (* If accept ever fails hard, still leave a clean filesystem. *)
          Fun.protect ~finally:cleanup accept_loop)
    end
  in
  let term =
    Term.(
      ret
        (const run $ stdio_arg $ socket_arg $ registry_arg $ max_disk_mb_arg
       $ queue_limit_arg $ deadline_arg $ metrics_file_arg $ metrics_interval_arg
       $ access_log_arg $ seed_arg $ trials_arg $ domains_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: a persistent daemon answering \
          synthesize/tune/export requests over line-framed JSON, with a \
          shared crash-safe schedule cache, per-request deadlines with \
          graceful degradation, bounded admission, Prometheus metrics \
          exposition and a structured access log")
    term

(* --- top --------------------------------------------------------------------- *)

(* A live terminal dashboard over a running server: poll the stats verb on
   its Unix socket, difference the counters for rates, and render the
   latency-quantile table. Doubles as the CLI front end of the exposition
   validator (--validate), the way `tacos trace --validate` fronts
   Chrome.validate. *)
let top_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket of the running 'tacos serve --socket' instance.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between polls.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Render $(docv) frames and exit (scripted use); 0 polls until \
             interrupted.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate $(docv) as a Prometheus text exposition (e.g. a \
             --metrics-file flush or a saved 'metrics' scrape) and exit.")
  in
  let poll_stats path =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_UNIX path);
        let oc = Unix.out_channel_of_descr sock in
        let ic = Unix.in_channel_of_descr sock in
        output_string oc "{\"op\":\"stats\"}\n";
        flush oc;
        Json.parse (input_line ic))
  in
  let bytes_pp b =
    if b >= 1048576. then Printf.sprintf "%.1f MB" (b /. 1048576.)
    else if b >= 1024. then Printf.sprintf "%.1f KB" (b /. 1024.)
    else Printf.sprintf "%.0f B" b
  in
  (* A number in a stats document, 0 when absent. *)
  let field doc k = Option.value ~default:0. (Option.bind (Json.member k doc) Json.to_float) in
  let render path doc ~rps =
    let num = field doc in
    let hits = num "hits" and misses = num "misses" in
    let accepted = num "accepted" and shed = num "shed" in
    let answered = hits +. misses in
    let offered = accepted +. shed in
    Printf.printf "tacos top — %s — uptime %.1fs — inflight %.0f\n" path
      (num "uptime_seconds") (num "inflight");
    Printf.printf
      "requests  accepted=%.0f  rps=%.1f  hit=%s  shed=%s  degraded=%.0f  \
       deadline_missed=%.0f  errors=%.0f\n"
      accepted rps
      (if answered > 0. then Table.cell_percent (hits /. answered) else "-")
      (if offered > 0. then Table.cell_percent (shed /. offered) else "-")
      (num "degraded") (num "deadline_missed") (num "errors");
    let rnum = field (Option.value ~default:Json.Null (Json.member "registry" doc)) in
    Printf.printf
      "registry  %.0f in memory, %.0f on disk (%s, %.0f corrupt, %.0f \
       quarantined)\n\n"
      (rnum "entries") (rnum "disk_entries")
      (bytes_pp (rnum "disk_bytes"))
      (rnum "disk_corrupt") (num "quarantined");
    let rows =
      match Json.member "latency_ms" doc with
      | Some (Json.Object verbs) ->
        List.filter_map
          (fun (verb, q) ->
            match q with
            | Json.Object _ ->
              let quantile k = Table.cell_float ~decimals:3 (field q k) in
              Some
                [
                  verb;
                  Printf.sprintf "%.0f" (field q "count");
                  quantile "p50";
                  quantile "p90";
                  quantile "p95";
                  quantile "p99";
                ]
            | _ -> None)
          verbs
      | _ -> []
    in
    if rows <> [] then
      Table.print
        ~header:[ "verb"; "count"; "p50 ms"; "p90 ms"; "p95 ms"; "p99 ms" ]
        rows
  in
  let run socket interval iterations validate =
    guard @@ fun () ->
    match (validate, socket) with
    | Some file, _ ->
      let text = read_file file in
      let* () =
        Result.map_error (Printf.sprintf "%s: invalid exposition: %s" file)
          (Tacos_obs.Expo.validate text)
      in
      let samples =
        match Tacos_obs.Expo.parse text with Ok l -> List.length l | Error _ -> 0
      in
      Printf.printf "%s: valid Prometheus text exposition (%d samples)\n" file samples;
      Ok ()
    | None, None -> Error "pass --socket PATH to watch a server (or --validate FILE)"
    | None, Some _ when interval <= 0. -> Error "--interval must be positive"
    | None, Some path -> (
      let prev_accepted = ref nan in
      let prev_t = ref nan in
      let frame i =
        let* doc =
          Result.map_error (Printf.sprintf "%s: bad stats response: %s" path) (poll_stats path)
        in
        let accepted = field doc "accepted" in
        let now = Unix.gettimeofday () in
        let rps =
          if Float.is_nan !prev_accepted || now <= !prev_t then 0.
          else (accepted -. !prev_accepted) /. (now -. !prev_t)
        in
        prev_accepted := accepted;
        prev_t := now;
        (* ANSI clear + home, like every terminal dashboard; frames scroll
           plainly when the output is not a tty. *)
        if Unix.isatty Unix.stdout then print_string "\027[2J\027[H"
        else if i > 0 then print_newline ();
        render path doc ~rps;
        flush stdout;
        Ok ()
      in
      let rec loop i =
        let* () = frame i in
        if iterations > 0 && i + 1 >= iterations then Ok ()
        else begin
          Thread.delay interval;
          loop (i + 1)
        end
      in
      try loop 0 with
      | Unix.Unix_error (e, _, _) ->
        errorf "%s: %s (is 'tacos serve --socket' running?)" path (Unix.error_message e)
      | End_of_file -> errorf "%s: connection closed mid-response" path)
  in
  let term =
    Term.(
      ret (const run $ socket_arg $ interval_arg $ iterations_arg $ validate_arg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running synthesis server: RPS, hit \
          ratio, shed rate, per-verb latency quantiles and registry size, \
          polled from its Unix socket; --validate checks a Prometheus \
          exposition file instead")
    term

(* --- info -------------------------------------------------------------------- *)

let info_cmd =
  let run topology =
    guard @@ fun () ->
    let* topo = topology in
    Format.printf "%a@." Topology.pp topo;
    Format.printf "strongly connected: %b@." (Topology.is_strongly_connected topo);
    Format.printf "diameter (latency): %s@."
      (Units.time_pp (Topology.diameter_latency topo));
    Format.printf "min ingress bw:     %s@."
      (Units.bandwidth_pp (Topology.min_ingress_bandwidth topo));
    Format.printf "total bw:           %s@."
      (Units.bandwidth_pp (Topology.total_bandwidth topo));
    (match Topology.hierarchy topo with
    | Some dims ->
      Format.printf "hierarchy:          %s@."
        (String.concat " x "
           (Array.to_list
              (Array.map
                 (fun (d : Topology.dim) ->
                   let kind =
                     match d.kind with
                     | Topology.Ring_dim -> "Ring"
                     | Topology.Mesh_dim -> "Mesh"
                     | Topology.Fully_connected_dim -> "FC"
                     | Topology.Switch_dim k -> Printf.sprintf "Switch(d=%d)" k
                   in
                   Printf.sprintf "%s[%d]" kind d.size)
                 dims)))
    | None -> ());
    (match Topology.rings topo with
    | Some rings -> Format.printf "ring embeddings:    %d recorded@." (List.length rings)
    | None -> ());
    Ok ()
  in
  let term = Term.(ret (const run $ topology)) in
  Cmd.v (Cmd.info "info" ~doc:"Show topology properties") term

let () =
  let doc = "TACOS: topology-aware collective algorithm synthesizer" in
  let info = Cmd.info "tacos" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synthesize_cmd; compare_cmd; tune_cmd; pareto_cmd; profile_cmd;
            trace_cmd; faults_cmd; serve_cmd; top_cmd; info_cmd;
          ]))
