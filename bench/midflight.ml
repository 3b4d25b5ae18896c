(* Mid-flight fault experiment: a link dies while the collective is running.

   PCCL/TACCL-style deployments treat a schedule as a static artifact: on a
   fabric change they either keep replaying it (the engine reroutes dead
   hops store-and-forward) or throw it away and re-synthesize from scratch.
   This sweep measures the third option this reproduction adds — incremental
   suffix repair (Resilience.repair): keep every send that completed before
   the fault and re-synthesize only the unmet postconditions from the
   actual chunk positions. Three completion times per row, timed from the
   same fault instant:

     - replay:  healthy schedule driven through the timed fault by the
                engine (in-flight abort + reroute, no re-planning);
     - repair:  suffix re-synthesis seeded with the positions at the fault;
     - full:    fault time + full re-synthesis on the degraded fabric.

   Rows land in BENCH_midflight.json; synthesis wall-clocks are recorded so
   the repair-is-cheaper claim is measured, not asserted. *)

open Tacos_topology
open Tacos_collective
open Exp_common
module Table = Tacos_util.Table
module Units = Tacos_util.Units
module Engine = Tacos_sim.Engine
module Fault = Tacos_resilience.Fault
module Resilience = Tacos_resilience.Resilience

let size = match scale with Small -> 16e6 | _ -> 64e6

let fractions =
  match scale with
  | Small -> [ 0.4 ]
  | Default -> [ 0.2; 0.4; 0.7 ]
  | Large -> [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let cases () =
  let mesh = ("2D Mesh 5x5", Builders.mesh [| 5; 5 |]) in
  let torus = ("2D Torus 4x4", Builders.torus [| 4; 4 |]) in
  match scale with
  | Small -> [ (mesh, Pattern.All_gather) ]
  | _ ->
    [ (mesh, Pattern.All_gather); (torus, Pattern.All_gather); (mesh, Pattern.All_reduce) ]

(* The victim: the first link still scheduled to carry traffic after the
   fault whose death keeps the fabric strongly connected — deterministic,
   and guaranteed to actually perturb the suffix. *)
let pick_victim topo (healthy : Synth.result) ~at =
  let future (s : Schedule.send) = s.Schedule.start > at in
  let connected_kill (s : Schedule.send) =
    Topology.is_strongly_connected (Fault.apply topo [ Fault.Kill_link s.Schedule.edge ])
  in
  List.find_opt
    (fun s -> future s && connected_kill s)
    (Schedule.sends healthy.Synth.schedule)

let measure name topo pattern frac =
  let sp =
    Spec.make ~chunks_per_npu:2 ~buffer_size:size ~pattern
      ~npus:(Topology.num_npus topo) ()
  in
  let healthy = Synth.synthesize topo sp in
  let healthy_time = Tacos.Tuner.simulated_time topo healthy in
  let at = frac *. healthy_time in
  match pick_victim topo healthy ~at with
  | None ->
    note "%s %s @%.0f%%: no connected-surviving victim after the fault time; skipped"
      name (Pattern.name pattern) (100. *. frac);
    None
  | Some victim_send ->
    let victim = victim_send.Schedule.edge in
    let faults = [ Fault.Kill_link victim ] in
    let replay =
      match Tacos.Tuner.replay ~faults:(Fault.timeline ~at topo faults) topo healthy with
      | r when r.Engine.stranded = [] -> Some r.Engine.finish_time
      | _ -> None
      | exception Engine.Simulation_error _ -> None
    in
    let repair, repair_obs =
      with_obs (fun () -> Resilience.repair ~at topo faults healthy)
    in
    let full = Resilience.synthesize ~faults topo sp in
    let repair_completion, repair_wall, strategy, verified =
      match repair with
      | Ok r ->
        ( Some r.Resilience.completion_time,
          Some r.Resilience.synth_wall_seconds,
          Resilience.strategy_name r.Resilience.strategy,
          (match r.Resilience.verified with Ok () -> true | Error _ -> false) )
      | Error f -> (None, None, "FAILED(" ^ f.Resilience.stage ^ ")", false)
    in
    let full_completion, full_wall =
      match full with
      | Ok o -> (Some (at +. o.Resilience.simulated_time), Some o.Resilience.wall_seconds)
      | Error _ -> (None, None)
    in
    let num = Option.value ~default:Float.nan in
    let wall_speedup =
      match (repair_wall, full_wall) with
      | Some r, Some f when r > 0. -> Some (f /. r)
      | _ -> None
    in
    record ~exp:"midflight"
      [
        ("topology", Json.String name);
        ("pattern", Json.String (Pattern.name pattern));
        ("buffer_bytes", Json.Number size);
        ("fault_fraction", Json.Number frac);
        ("at_seconds", Json.Number at);
        ("victim_link", Json.Number (float_of_int victim));
        ("healthy_seconds", Json.Number healthy_time);
        ("replay_seconds", Json.Number (num replay));
        ("repair_strategy", Json.String strategy);
        ("repair_verified", Json.Bool verified);
        ("repair_completion_seconds", Json.Number (num repair_completion));
        ("repair_synth_wall_seconds", Json.Number (num repair_wall));
        ("full_completion_seconds", Json.Number (num full_completion));
        ("full_synth_wall_seconds", Json.Number (num full_wall));
        ("repair_wall_speedup", Json.Number (num wall_speedup));
        ("obs", repair_obs);
      ];
    Some
      [
        name;
        Pattern.name pattern;
        Printf.sprintf "%.0f%%" (100. *. frac);
        Units.time_pp (num replay);
        Units.time_pp (num repair_completion) ^ (if verified then "" else " !");
        Units.time_pp (num full_completion);
        (match wall_speedup with
        | Some s -> Printf.sprintf "%.1fx" s
        | None -> "n/a");
        strategy;
      ]

(* --- multi-epoch timelines ------------------------------------------------ *)

(* Fault sequences: 1, 2 or 3 link kills landing at successive instants of
   one collective, each repaired incrementally on top of the previous repair
   (Resilience.repair_timeline). Victims are picked like [pick_victim] —
   still-scheduled-after-the-fault, cumulative kill set keeps the fabric
   strongly connected — so every timeline is deterministic and survivable. *)
let epoch_fractions = function 1 -> [ 0.4 ] | 2 -> [ 0.3; 0.55 ] | _ -> [ 0.3; 0.55; 0.75 ]

let pick_victims topo (healthy : Synth.result) ~ats =
  let sends = Schedule.sends healthy.Synth.schedule in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | at :: rest -> (
      let already = List.map snd acc in
      let ok (s : Schedule.send) =
        s.Schedule.start > at
        && (not (List.mem s.Schedule.edge already))
        && Topology.is_strongly_connected
             (Fault.apply topo
                (List.map (fun e -> Fault.Kill_link e) (s.Schedule.edge :: already)))
      in
      match List.find_opt ok sends with
      | Some s -> go ((at, s.Schedule.edge) :: acc) rest
      | None -> None)
  in
  go [] ats

let measure_multi name topo pattern epochs =
  let sp =
    Spec.make ~chunks_per_npu:2 ~buffer_size:size ~pattern
      ~npus:(Topology.num_npus topo) ()
  in
  let healthy = Synth.synthesize topo sp in
  let healthy_time = Tacos.Tuner.simulated_time topo healthy in
  let ats = List.map (fun f -> f *. healthy_time) (epoch_fractions epochs) in
  match pick_victims topo healthy ~ats with
  | None ->
    note "%s %s x%d: no connected-surviving victim sequence; skipped" name
      (Pattern.name pattern) epochs;
    None
  | Some victims -> (
    let events =
      List.map (fun (at, edge) -> (at, [ Fault.Kill_link edge ])) victims
    in
    let outcome, obs =
      with_obs (fun () ->
          let tr = Resilience.repair_timeline ~events topo healthy in
          (* Read while the registry is still enabled: how much matching work
             the whole timeline cost, and whether it reused the cached TEN. *)
          ( tr,
            Obs.value (Obs.counter "synth.matches"),
            Obs.value (Obs.counter "synth.repair_ten_reuse") ))
    in
    let tr, repair_matches, ten_reuse = outcome in
    match tr with
    | Error f ->
      note "%s %s x%d: timeline repair failed at stage %s; skipped" name
        (Pattern.name pattern) epochs f.Resilience.stage;
      None
    | Ok tr ->
      let strategies =
        String.concat "+"
          (List.map
             (fun (e : Resilience.epoch) ->
               Resilience.strategy_name e.Resilience.repaired.Resilience.strategy)
             tr.Resilience.epochs)
      in
      let verified =
        match tr.Resilience.verified with Ok () -> true | Error _ -> false
      in
      let healthy_matches = healthy.Synth.stats.Synth.matches in
      let fewer_matches = repair_matches < healthy_matches * epochs in
      record ~exp:"midflight_multi"
        [
          ("topology", Json.String name);
          ("pattern", Json.String (Pattern.name pattern));
          ("buffer_bytes", Json.Number size);
          ("epochs", Json.Number (float_of_int epochs));
          ( "at_seconds",
            Json.Array (List.map (fun (at, _) -> Json.Number at) victims) );
          ( "victim_links",
            Json.Array
              (List.map (fun (_, e) -> Json.Number (float_of_int e)) victims) );
          ("healthy_seconds", Json.Number healthy_time);
          ("completion_seconds", Json.Number tr.Resilience.completion_time);
          ("strategies", Json.String strategies);
          ("verified", Json.Bool verified);
          ("healthy_matches", Json.Number (float_of_int healthy_matches));
          ("repair_matches", Json.Number (float_of_int repair_matches));
          ("repair_fewer_matches", Json.Bool fewer_matches);
          ("ten_reused", Json.Bool (ten_reuse > 0));
          ("obs", obs);
        ];
      Some
        [
          name;
          Pattern.name pattern;
          string_of_int epochs;
          Units.time_pp healthy_time;
          Units.time_pp tr.Resilience.completion_time ^ (if verified then "" else " !");
          strategies;
          Printf.sprintf "%d/%d%s" repair_matches (healthy_matches * epochs)
            (if fewer_matches then "" else " !");
        ])

let run () =
  section "Mid-flight faults — replay vs incremental repair vs full re-synthesis";
  let rows = ref [] in
  List.iter
    (fun ((name, topo), pattern) ->
      List.iter
        (fun frac ->
          match measure name topo pattern frac with
          | Some row -> rows := !rows @ [ row ]
          | None -> ())
        fractions)
    (cases ());
  Table.print
    ~header:
      [ "Topology"; "pattern"; "fault@"; "replay"; "repair"; "full"; "wall speedup"; "strategy" ]
    !rows;
  note "completion times are absolute (fault lands mid-collective)";
  note "wall speedup: full re-synthesis wall-clock / suffix-repair wall-clock";
  flush_bench ~exp:"midflight";
  section "Multi-epoch fault timelines — incremental repair across fault sequences";
  let rows = ref [] in
  List.iter
    (fun ((name, topo), pattern) ->
      List.iter
        (fun epochs ->
          match measure_multi name topo pattern epochs with
          | Some row -> rows := !rows @ [ row ]
          | None -> ())
        [ 1; 2; 3 ])
    (cases ());
  Table.print
    ~header:
      [ "Topology"; "pattern"; "epochs"; "healthy"; "completion"; "strategies"; "matches" ]
    !rows;
  note "matches: timeline-repair link matches / healthy matches x epochs (repair searches less)";
  flush_bench ~exp:"midflight_multi"
