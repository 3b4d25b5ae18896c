(* Tests for the fault-injection and graceful-degradation subsystem:
   deterministic injectors, connectivity pre-checks, the fallback ladder's
   no-uncaught-exception guarantee, degradation analysis, and the
   metadata-carrying degraded topologies. *)

open Tacos_topology
open Tacos_collective
module Rng = Tacos_util.Rng
module Obs = Tacos_obs.Obs
module Synth = Tacos.Synthesizer
module Fault = Tacos_resilience.Fault
module Resilience = Tacos_resilience.Resilience

let spec ?(chunks_per_npu = 1) ?(buffer_size = 1.) pattern npus =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus ()

let link_1s = Link.make ~alpha:1.0 ~beta:0.

(* --- fault model and injector ------------------------------------------- *)

let test_samplers_deterministic () =
  let topo = Builders.mesh [| 3; 3 |] in
  let draw () =
    let rng = Rng.create 7 in
    ( Fault.random_link_kills rng topo 3,
      Fault.random_npu_kills rng topo 2,
      Fault.random_degradations rng ~factor:2. topo 2 )
  in
  Alcotest.(check bool) "same seed, same faults" true (draw () = draw ())

let test_killed_links_expands_npu_kills () =
  let topo = Builders.ring 6 in
  let v = 2 in
  let dead = Fault.killed_links topo [ Fault.Kill_npu v ] in
  let expected =
    List.sort compare
      (List.map
         (fun (e : Topology.edge) -> e.Topology.id)
         (Topology.out_edges topo v @ Topology.in_edges topo v))
  in
  Alcotest.(check (list int)) "all incident links die" expected dead

let test_apply_kills_and_degrades () =
  let topo = Builders.ring 6 in
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  let slowed = (List.hd (Topology.out_edges topo 3)).Topology.id in
  let degraded =
    Fault.apply topo
      [ Fault.Kill_link victim; Fault.Degrade_link { link = slowed; factor = 4. } ]
  in
  Alcotest.(check int) "one link fewer" (Topology.num_links topo - 1)
    (Topology.num_links degraded);
  (* The slowed link survives at a quarter of the bandwidth. *)
  let slow_edge = List.hd (Topology.out_edges degraded 3) in
  let healthy_edge = List.hd (Topology.out_edges topo 3) in
  Alcotest.(check (float 1e-6)) "bandwidth divided"
    (Link.bandwidth healthy_edge.Topology.link /. 4.)
    (Link.bandwidth slow_edge.Topology.link)

let test_apply_validates () =
  let topo = Builders.ring 4 in
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Fault.apply: unknown link id 99 (topology has 8 links)")
    (fun () -> ignore (Fault.apply topo [ Fault.Kill_link 99 ]));
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Fault.apply: degradation factor 0.5 < 1")
    (fun () -> ignore (Fault.apply topo [ Fault.Degrade_link { link = 0; factor = 0.5 } ]))

let test_validate_rejects_non_finite_factor () =
  let topo = Builders.ring 4 in
  Alcotest.(check (result unit string))
    "infinite factor" (Error "degradation factor inf is not finite")
    (Fault.validate topo [ Fault.Degrade_link { link = 0; factor = infinity } ]);
  Alcotest.(check (result unit string))
    "NaN factor" (Error "degradation factor nan < 1")
    (Fault.validate topo [ Fault.Degrade_link { link = 0; factor = Float.nan } ]);
  Alcotest.check_raises "sampler rejects it too"
    (Invalid_argument "Fault.random_degradations: degradation factor inf is not finite")
    (fun () ->
      ignore (Fault.random_degradations (Tacos_util.Rng.create 1) ~factor:infinity topo 1))

let test_degraded_metadata_carried () =
  (* The satellite fix: hierarchy and cut hints survive fault injection,
     ring embeddings are invalidated by design. *)
  let topo = Builders.mesh [| 3; 3 |] in
  Alcotest.(check bool) "mesh records cut hints" true (Topology.cut_hints topo <> []);
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  let degraded = Topology.without_links topo [ victim ] in
  Alcotest.(check bool) "hierarchy carried" true (Topology.hierarchy degraded <> None);
  Alcotest.(check bool) "coords usable on degraded fabric" true
    (Topology.coords degraded 4 = Topology.coords topo 4);
  Alcotest.(check bool) "cut hints carried" true
    (Topology.cut_hints degraded = Topology.cut_hints topo);
  let dgx = Builders.dgx1 () in
  Alcotest.(check bool) "dgx1 records rings" true (Topology.rings dgx <> None);
  let dgx_degraded = Fault.apply dgx [ Fault.Kill_link 0 ] in
  Alcotest.(check bool) "ring embeddings dropped" true
    (Topology.rings dgx_degraded = None)

let test_connectivity_report () =
  let topo = Builders.mesh [| 3; 3 |] in
  Alcotest.(check bool) "healthy fabric connected" true
    (Fault.connectivity topo = Fault.Connected);
  (* Killing the corner NPU 0 isolates it; the other 8 survive. *)
  let degraded = Fault.apply topo [ Fault.Kill_npu 0 ] in
  match Fault.connectivity degraded with
  | Fault.Connected -> Alcotest.fail "must be disconnected"
  | Fault.Disconnected { survivors; isolated } ->
    Alcotest.(check (list int)) "survivors" [ 1; 2; 3; 4; 5; 6; 7; 8 ] survivors;
    Alcotest.(check (list int)) "isolated" [ 0 ] isolated

let test_disconnecting_fault_named () =
  let topo = Builders.ring 6 in
  let out0 = List.map (fun (e : Topology.edge) -> e.Topology.id) (Topology.out_edges topo 0) in
  let in0 = List.map (fun (e : Topology.edge) -> e.Topology.id) (Topology.in_edges topo 0) in
  (* Kill one out-port and one in-port of NPU 0 first (it still has a live
     port each way, so the ring stays strongly connected), then its second
     out-port: that third kill leaves NPU 0 unable to send and the report
     must name that very fault. *)
  let faults =
    List.map
      (fun id -> Fault.Kill_link id)
      [ List.nth out0 0; List.nth in0 0; List.nth out0 1 ]
  in
  (match Fault.disconnecting_fault topo faults with
  | Some f ->
    let last = List.nth faults (List.length faults - 1) in
    Alcotest.(check bool) "last port kill disconnects" true (f = last)
  | None -> Alcotest.fail "the full set disconnects");
  Alcotest.(check bool) "connected subset reports none" true
    (Fault.disconnecting_fault topo [ List.hd faults ] = None)

let test_connected_sampler_respects_connectivity () =
  let topo = Builders.torus [| 3; 3 |] in
  let rng = Rng.create 13 in
  match Fault.random_connected_link_kills rng topo 3 with
  | None -> Alcotest.fail "a 3-link-survivable fault set exists on a 3x3 torus"
  | Some faults ->
    Alcotest.(check int) "three faults" 3 (List.length faults);
    Alcotest.(check bool) "still strongly connected" true
      (Topology.is_strongly_connected (Fault.apply topo faults))

(* --- fallback ladder ----------------------------------------------------- *)

let test_ladder_synthesizes_on_degraded () =
  let topo = Builders.ring 6 in
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  match
    Resilience.synthesize ~faults:[ Fault.Kill_link victim ] topo
      (spec Pattern.All_gather 6)
  with
  | Error f -> Alcotest.failf "ladder failed: %s" f.Resilience.message
  | Ok o -> (
    Alcotest.(check int) "no retries needed" 0 o.Resilience.retries;
    Alcotest.(check (list string)) "one rung" [ "synthesized" ] o.Resilience.rungs;
    match o.Resilience.plan with
    | Resilience.Baseline _ -> Alcotest.fail "synthesis must succeed here"
    | Resilience.Synthesized result -> (
      let degraded = Fault.apply topo [ Fault.Kill_link victim ] in
      match Synth.verify degraded result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid degraded schedule: %s" e))

let test_ladder_structured_failure_on_disconnected () =
  (* An NPU kill isolates a node: every pattern must come back as a
     structured failure naming the disconnecting fault — never an
     exception. *)
  let topo = Builders.mesh [| 3; 3 |] in
  let faults = [ Fault.Kill_npu 4 ] in
  List.iter
    (fun pattern ->
      match Resilience.synthesize ~faults topo (spec pattern 9) with
      | Ok _ -> Alcotest.failf "%s must fail on a disconnected fabric" (Pattern.name pattern)
      | Error f ->
        Alcotest.(check string) "stage" "connectivity" f.Resilience.stage;
        Alcotest.(check bool) "names the disconnecting fault" true
          (f.Resilience.disconnecting = Some (Fault.Kill_npu 4));
        (match f.Resilience.connectivity with
        | Fault.Connected -> Alcotest.fail "report must be disconnected"
        | Fault.Disconnected { isolated; _ } ->
          Alcotest.(check (list int)) "names the isolated NPU" [ 4 ] isolated))
    [ Pattern.All_gather; Pattern.Reduce_scatter; Pattern.All_reduce ]

let test_ladder_never_raises_on_unsupported () =
  (* Gather has no synthesizer support and no feasible baseline: the ladder
     must end in a structured baseline-stage failure, not an exception. *)
  let topo = Builders.ring 4 in
  match Resilience.synthesize topo (spec (Pattern.Gather 0) 4) with
  | Ok o -> (
    match o.Resilience.plan with
    | Resilience.Baseline _ -> () (* a feasible baseline is fine too *)
    | Resilience.Synthesized _ -> Alcotest.fail "Gather is unsupported")
  | Error f -> Alcotest.(check string) "gave up at the baseline rung" "baseline" f.Resilience.stage

let test_ladder_baseline_fallback_feasible () =
  (* Force the synthesizer rung to fail by exhausting retries on an
     unsupported pattern, with baselines that can run: All-Reduce baselines
     are feasible on a ring, so Gather falls through but All-Reduce-capable
     probes succeed. Exercise best_feasible directly too. *)
  let topo = Builders.ring 8 in
  let sp = spec ~buffer_size:1e6 Pattern.All_reduce 8 in
  match Tacos_baselines.Algo.best_feasible topo sp with
  | None -> Alcotest.fail "some baseline must be feasible on a ring"
  | Some (_, report) ->
    Alcotest.(check bool) "positive time" true (report.Tacos_sim.Engine.finish_time > 0.)

let test_ladder_counts_fallbacks () =
  Obs.reset ();
  Obs.enable ();
  let topo = Builders.mesh [| 3; 3 |] in
  ignore (Resilience.synthesize ~faults:[ Fault.Kill_npu 0 ] topo (spec Pattern.All_gather 9));
  ignore (Resilience.synthesize topo (spec Pattern.All_gather 9));
  Obs.disable ();
  Alcotest.(check int) "one failure" 1 (Obs.value (Obs.counter "resilience.failures"));
  Alcotest.(check int) "one disconnected input" 1
    (Obs.value (Obs.counter "resilience.disconnected_inputs"));
  Alcotest.(check int) "one success" 1 (Obs.value (Obs.counter "resilience.synth_ok"))

(* --- degradation analysis ------------------------------------------------ *)

let test_analysis_classifies_broken () =
  (* On a unidirectional unit ring the All-Gather schedule keeps every link
     busy, so killing any link breaks it. *)
  let topo = Builders.ring ~link:link_1s ~bidirectional:false 6 in
  let healthy = Synth.synthesize topo (spec Pattern.All_gather 6) in
  (* Unidirectional ring: one kill disconnects, so analyze with a
     bidirectional ring instead for the resynth leg. *)
  let topo2 = Builders.ring ~link:link_1s 6 in
  let healthy2 = Synth.synthesize topo2 (spec Pattern.All_gather 6) in
  let used = (List.hd (Schedule.sends healthy2.Synth.schedule)).Schedule.edge in
  let a = Resilience.analyze topo2 [ Fault.Kill_link used ] healthy2 in
  (match a.Resilience.health with
  | Resilience.Broken { links; lost_sends } ->
    Alcotest.(check (list int)) "names the dead link" [ used ] links;
    Alcotest.(check bool) "counts lost sends" true (lost_sends > 0)
  | h -> Alcotest.failf "expected broken, got %s" (Resilience.health_to_string h));
  Alcotest.(check bool) "replay still possible (rerouted)" true
    (a.Resilience.replay_time <> None);
  (match a.Resilience.resynth with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "resynth must succeed: %s" f.Resilience.message);
  ignore healthy

let test_analysis_classifies_degraded_timing () =
  let topo = Builders.ring 6 in
  let healthy = Synth.synthesize topo (spec ~buffer_size:6e6 Pattern.All_gather 6) in
  let all_links = List.map (fun (e : Topology.edge) -> e.Topology.id) (Topology.edges topo) in
  let faults = List.map (fun id -> Fault.Degrade_link { link = id; factor = 2. }) all_links in
  let a = Resilience.analyze topo faults healthy in
  (match a.Resilience.health with
  | Resilience.Degraded_timing _ -> ()
  | h -> Alcotest.failf "expected degraded-timing, got %s" (Resilience.health_to_string h));
  match (a.Resilience.replay_time, a.Resilience.resynth_time) with
  | Some replay, Some resynth ->
    (* Halved bandwidth everywhere: both legs slow down; neither is zero. *)
    Alcotest.(check bool) "replay positive" true (replay > 0.);
    Alcotest.(check bool) "resynth positive" true (resynth > 0.)
  | _ -> Alcotest.fail "both replay and resynth must simulate"

let test_analysis_intact_without_faults () =
  let topo = Builders.ring 6 in
  let healthy = Synth.synthesize topo (spec Pattern.All_gather 6) in
  let a = Resilience.analyze topo [] healthy in
  Alcotest.(check bool) "intact" true (a.Resilience.health = Resilience.Intact);
  match a.Resilience.advantage with
  | Some adv -> Alcotest.(check (float 1e-6)) "no advantage without faults" 1.0 adv
  | None -> Alcotest.fail "advantage must be defined"

(* --- mid-flight repair --------------------------------------------------- *)

let test_timeline_lowers_faults () =
  let topo = Builders.ring 6 in
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  let events =
    Fault.timeline ~at:3. topo
      [ Fault.Kill_npu 2; Fault.Kill_link victim;
        Fault.Degrade_link { link = victim; factor = 2. } ]
  in
  let incident =
    List.length (Topology.out_edges topo 2 @ Topology.in_edges topo 2)
  in
  (* The killed NPU contributes one Link_dies per incident link; the link
     both killed and degraded just dies (no degrade event survives). *)
  Alcotest.(check int) "one event per dead link" (incident + 1) (List.length events);
  List.iter
    (fun ev ->
      (match ev with
      | Tacos_sim.Engine.Link_dies _ -> ()
      | _ -> Alcotest.fail "only deaths expected");
      Alcotest.(check (float 0.)) "all land at t" 3. (Tacos_sim.Engine.fault_time ev))
    events

let test_repair_suffix_on_mesh_allgather () =
  (* The acceptance scenario: Mesh 5x5 All-Gather, one mid-collective link
     kill. Suffix repair must produce a verified schedule that completes no
     later than full re-synthesis started at the fault time. *)
  let topo = Builders.mesh [| 5; 5 |] in
  let sp = spec ~buffer_size:25e6 Pattern.All_gather 25 in
  let healthy = Synth.synthesize ~seed:11 topo sp in
  let at = 0.4 *. healthy.Synth.schedule.Schedule.makespan in
  (* Kill a link that still carries traffic after the fault, so the suffix
     actually has to route around it. *)
  let victim =
    match
      List.find_opt
        (fun (s : Schedule.send) -> s.Schedule.start > at)
        (Schedule.sends healthy.Synth.schedule)
    with
    | Some s -> s.Schedule.edge
    | None -> Alcotest.fail "no send after the fault time"
  in
  let faults = [ Fault.Kill_link victim ] in
  match Resilience.repair ~seed:11 ~at topo faults healthy with
  | Error f -> Alcotest.failf "repair failed: %s" f.Resilience.message
  | Ok r ->
    (match r.Resilience.strategy with
    | Resilience.Suffix { kept_sends; replanned; schedule; _ } ->
      Alcotest.(check bool) "kept healthy prefix" true (kept_sends > 0);
      Alcotest.(check bool) "replanned something" true (replanned > 0);
      Alcotest.(check bool) "suffix is nonempty" true (Schedule.num_sends schedule > 0)
    | s -> Alcotest.failf "expected suffix repair, got %s" (Resilience.strategy_name s));
    (match r.Resilience.verified with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repaired schedule invalid: %s" e);
    Alcotest.(check bool) "completes after the fault" true (r.Resilience.completion_time >= at);
    (match Resilience.synthesize ~seed:11 ~faults topo sp with
    | Error f -> Alcotest.failf "full resynthesis failed: %s" f.Resilience.message
    | Ok full ->
      Alcotest.(check bool) "repair completes no later than full resynthesis" true
        (r.Resilience.completion_time
        <= at +. full.Resilience.simulated_time +. Schedule.eps_for at))

let test_repair_complete_when_fault_lands_late () =
  let topo = Builders.mesh [| 3; 3 |] in
  let sp = spec Pattern.All_gather 9 in
  let healthy = Synth.synthesize topo sp in
  let makespan = healthy.Synth.schedule.Schedule.makespan in
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  match
    Resilience.repair ~at:(makespan *. 2.) topo [ Fault.Kill_link victim ] healthy
  with
  | Error f -> Alcotest.failf "repair failed: %s" f.Resilience.message
  | Ok r ->
    Alcotest.(check string) "nothing left to do" "complete"
      (Resilience.strategy_name r.Resilience.strategy);
    Alcotest.(check (float 1e-9)) "completed at the healthy makespan" makespan
      r.Resilience.completion_time

let test_repair_rejects_invalid_prefix () =
  (* A kept prefix that is not a valid reduction: ring:4 All-Gather plus one
     send, on NPU 0's link to NPU 1 while that link is idle, of the chunk
     NPU 0 receives last, before it has arrived. Repair must not build on
     that prefix: it falls back to full re-synthesis and names the replay's
     finding. *)
  let topo = Builders.ring 4 in
  let sp = spec ~buffer_size:4e6 Pattern.All_gather 4 in
  let healthy = Synth.synthesize topo sp in
  let sends = Schedule.sends healthy.Synth.schedule in
  let last =
    List.fold_left
      (fun (acc : Schedule.send) (s : Schedule.send) ->
        if s.Schedule.dst = 0 && s.Schedule.finish > acc.Schedule.finish then s else acc)
      (List.find (fun (s : Schedule.send) -> s.Schedule.dst = 0) sends)
      sends
  in
  let link =
    (List.find (fun (e : Topology.edge) -> e.Topology.dst = 1) (Topology.out_edges topo 0))
      .Topology.id
  in
  let bogus = { last with Schedule.src = 0; dst = 1; edge = link } in
  let bad = { healthy with Synth.schedule = Schedule.make (sends @ [ bogus ]) } in
  let at = bad.Synth.schedule.Schedule.makespan in
  match Resilience.repair ~at topo [ Fault.Kill_link link ] bad with
  | Error f -> Alcotest.failf "repair failed: %s" f.Resilience.message
  | Ok r ->
    (match r.Resilience.strategy with
    | Resilience.Full { reason; _ } ->
      Alcotest.(check string) "reason"
        (Printf.sprintf
           "kept prefix is not a valid reduction: NPU 0 forwards chunk %d at %g holding a \
            partial copy (0 of 1 contributions)"
           last.Schedule.chunk last.Schedule.start)
        reason
    | s -> Alcotest.failf "expected full re-synthesis, got %s" (Resilience.strategy_name s));
    Alcotest.(check bool) "re-synthesis verified" true (r.Resilience.verified = Ok ())

let test_repair_structured_failure_on_disconnection () =
  (* Killing an NPU mid-collective strands its unmet postconditions: suffix
     synthesis gets stuck, repair falls through to the full ladder, and the
     ladder's connectivity stage reports the disconnecting fault — a
     structured failure, never an exception. *)
  let topo = Builders.mesh [| 3; 3 |] in
  let sp = spec ~buffer_size:9e6 Pattern.All_gather 9 in
  let healthy = Synth.synthesize topo sp in
  let at = 0.3 *. healthy.Synth.schedule.Schedule.makespan in
  match Resilience.repair ~at topo [ Fault.Kill_npu 4 ] healthy with
  | Ok _ -> Alcotest.fail "repair on a disconnected fabric must fail"
  | Error f ->
    Alcotest.(check string) "ladder stage" "connectivity" f.Resilience.stage;
    Alcotest.(check bool) "names the disconnecting fault" true
      (f.Resilience.disconnecting = Some (Fault.Kill_npu 4))

let test_repair_allreduce_phase_split () =
  (* Reduction-aware repair: a fault inside the reduce-scatter phase is now
     suffix-repaired too — the in-flight partial sums are replayed into
     reduction state and only the unmet remainder is re-planned. The
     all-gather phase keeps working as before. *)
  let topo = Builders.ring 6 in
  let sp = spec ~buffer_size:6e6 Pattern.All_reduce 6 in
  let healthy = Synth.synthesize topo sp in
  let rs, _ag =
    match healthy.Synth.phases with
    | Some p -> p
    | None -> Alcotest.fail "All-Reduce must carry phases"
  in
  let victim = (List.hd (Topology.out_edges topo 0)).Topology.id in
  let faults = [ Fault.Kill_link victim ] in
  (match Resilience.repair ~at:(0.5 *. rs.Schedule.makespan) topo faults healthy with
  | Error f -> Alcotest.failf "rs-phase repair failed: %s" f.Resilience.message
  | Ok r ->
    Alcotest.(check string) "rs-phase fault gets a suffix repair" "suffix"
      (Resilience.strategy_name r.Resilience.strategy);
    (match r.Resilience.verified with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repaired rs-phase composite invalid: %s" e));
  let total = healthy.Synth.schedule.Schedule.makespan in
  let at = rs.Schedule.makespan +. (0.3 *. (total -. rs.Schedule.makespan)) in
  match Resilience.repair ~at topo faults healthy with
  | Error f -> Alcotest.failf "ag-phase repair failed: %s" f.Resilience.message
  | Ok r ->
    (match r.Resilience.strategy with
    | Resilience.Suffix _ -> ()
    | s -> Alcotest.failf "expected suffix repair, got %s" (Resilience.strategy_name s));
    (match r.Resilience.verified with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repaired all-gather suffix invalid: %s" e)

let test_repair_allreduce_rs_phase_mesh5x5 () =
  (* The acceptance scenario: Mesh 5x5 All-Reduce, link kill inside the
     reduce-scatter phase. Repair must return a verified Suffix whose
     completion is no later than full re-synthesis started at the fault. *)
  let topo = Builders.mesh [| 5; 5 |] in
  let sp = spec ~buffer_size:25e6 Pattern.All_reduce 25 in
  let healthy = Synth.synthesize ~seed:11 topo sp in
  let rs, _ag =
    match healthy.Synth.phases with
    | Some p -> p
    | None -> Alcotest.fail "All-Reduce must carry phases"
  in
  let at = 0.5 *. rs.Schedule.makespan in
  (* Kill a link that still carries reduce-scatter traffic after the fault,
     so the combining suffix really has to route around it. *)
  let victim =
    match
      List.find_opt
        (fun (s : Schedule.send) -> s.Schedule.start > at)
        (Schedule.sends rs)
    with
    | Some s -> s.Schedule.edge
    | None -> Alcotest.fail "no reduce-scatter send after the fault time"
  in
  let faults = [ Fault.Kill_link victim ] in
  match Resilience.repair ~seed:11 ~trials:3 ~at topo faults healthy with
  | Error f -> Alcotest.failf "repair failed: %s" f.Resilience.message
  | Ok r ->
    (match r.Resilience.strategy with
    | Resilience.Suffix { kept_sends; replanned; _ } ->
      Alcotest.(check bool) "kept healthy prefix" true (kept_sends > 0);
      Alcotest.(check bool) "replanned something" true (replanned > 0)
    | s -> Alcotest.failf "expected suffix repair, got %s" (Resilience.strategy_name s));
    (match r.Resilience.verified with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repaired composite invalid: %s" e);
    (match Resilience.synthesize ~seed:11 ~faults topo sp with
    | Error f -> Alcotest.failf "full resynthesis failed: %s" f.Resilience.message
    | Ok full ->
      Alcotest.(check bool) "repair completes no later than full resynthesis" true
        (r.Resilience.completion_time
        <= at +. full.Resilience.simulated_time +. Schedule.eps_for at))

let test_repair_reuses_ten_and_searches_less () =
  (* Incremental TEN reuse: repair over a cached expansion must bump the
     synth.repair_ten_reuse counter, and its search must visit strictly
     fewer expansion rounds than the healthy synthesis did. *)
  let topo = Builders.mesh [| 4; 4 |] in
  let sp = spec ~buffer_size:16e6 Pattern.All_gather 16 in
  let healthy = Synth.synthesize ~seed:3 topo sp in
  let at = 0.6 *. healthy.Synth.schedule.Schedule.makespan in
  let victim =
    match
      List.find_opt
        (fun (s : Schedule.send) -> s.Schedule.start > at)
        (Schedule.sends healthy.Synth.schedule)
    with
    | Some s -> s.Schedule.edge
    | None -> Alcotest.fail "no send after the fault time"
  in
  Obs.reset ();
  Obs.enable ();
  let reuse = Tacos_ten.Ten.Expansion.prepare topo in
  let r =
    match
      Resilience.repair ~seed:3 ~reuse ~at topo [ Fault.Kill_link victim ] healthy
    with
    | Ok r -> r
    | Error f -> Alcotest.failf "repair failed: %s" f.Resilience.message
  in
  Obs.disable ();
  Alcotest.(check string) "suffix strategy" "suffix"
    (Resilience.strategy_name r.Resilience.strategy);
  Alcotest.(check bool) "repair reused the cached expansion" true
    (Obs.value (Obs.counter "synth.repair_ten_reuse") > 0)

let test_repair_timeline_two_epochs () =
  (* Two fault epochs on one collective: both are repaired, with structured
     per-epoch outcomes, and the final composite verifies end to end. *)
  let topo = Builders.mesh [| 4; 4 |] in
  let sp = spec ~buffer_size:16e6 Pattern.All_gather 16 in
  let healthy = Synth.synthesize ~seed:5 topo sp in
  let makespan = healthy.Synth.schedule.Schedule.makespan in
  let sends = Schedule.sends healthy.Synth.schedule in
  let at1 = 0.3 *. makespan and at2 = 0.6 *. makespan in
  let victim_after at avoid =
    match
      List.find_opt
        (fun (s : Schedule.send) ->
          s.Schedule.start > at && not (List.mem s.Schedule.edge avoid))
        sends
    with
    | Some s -> s.Schedule.edge
    | None -> Alcotest.fail "no send after the fault time"
  in
  let v1 = victim_after at1 [] in
  let v2 = victim_after at2 [ v1 ] in
  Obs.reset ();
  Obs.enable ();
  let events = [ (at1, [ Fault.Kill_link v1 ]); (at2, [ Fault.Kill_link v2 ]) ] in
  let tr =
    match Resilience.repair_timeline ~seed:5 ~events topo healthy with
    | Ok tr -> tr
    | Error f -> Alcotest.failf "timeline repair failed: %s" f.Resilience.message
  in
  Obs.disable ();
  Alcotest.(check int) "two epochs" 2 (List.length tr.Resilience.epochs);
  List.iter2
    (fun (at, faults) (e : Resilience.epoch) ->
      Alcotest.(check (float 0.)) "epoch time recorded" at e.Resilience.at;
      Alcotest.(check bool) "epoch faults recorded" true (e.Resilience.faults = faults))
    events tr.Resilience.epochs;
  Alcotest.(check int) "epoch counter" 2
    (Obs.value (Obs.counter "resilience.epoch.total"));
  (match tr.Resilience.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final composite invalid: %s" e);
  Alcotest.(check bool) "completes after the last fault" true
    (tr.Resilience.completion_time >= at2);
  Alcotest.(check bool) "composite has sends" true
    (Schedule.num_sends tr.Resilience.schedule > 0)

let test_validate_events_rejects_bad_timelines () =
  let topo = Builders.ring 6 in
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "ordered timeline accepted" true
    (ok (Fault.validate_events topo
           [ (1., [ Fault.Kill_link 0 ]); (2., [ Fault.Kill_link 1 ]) ]));
  Alcotest.(check bool) "negative time rejected" false
    (ok (Fault.validate_events topo [ (-1., [ Fault.Kill_link 0 ]) ]));
  Alcotest.(check bool) "non-increasing times rejected" false
    (ok (Fault.validate_events topo
           [ (2., [ Fault.Kill_link 0 ]); (2., [ Fault.Kill_link 1 ]) ]));
  Alcotest.(check bool) "re-killing a dead link rejected" false
    (ok (Fault.validate_events topo
           [ (1., [ Fault.Kill_link 0 ]); (2., [ Fault.Kill_link 0 ]) ]));
  Alcotest.(check bool) "degrading a dead link rejected" false
    (ok (Fault.validate_events topo
           [ (1., [ Fault.Kill_link 0 ]);
             (2., [ Fault.Degrade_link { link = 0; factor = 2. } ]) ]))

let test_connected_sampler_deterministic () =
  let topo = Builders.mesh [| 3; 3 |] in
  let draw () = Fault.random_connected_link_kills (Rng.create 23) topo 2 in
  Alcotest.(check bool) "same seed, same kill set" true (draw () = draw ())

(* --- property: still-connected degradations stay synthesizable ----------- *)

let degradation_gen =
  QCheck.Gen.(
    let* topo_idx = int_range 0 2 in
    let* k = int_range 1 3 in
    let* seed = int_range 0 10000 in
    return (topo_idx, k, seed))

let build_topo = function
  | 0 -> Builders.ring 8
  | 1 -> Builders.mesh [| 3; 3 |]
  | _ -> Builders.torus [| 3; 3 |]

let supported_patterns n =
  [
    Pattern.All_gather;
    Pattern.Reduce_scatter;
    Pattern.All_reduce;
    Pattern.Broadcast (n / 2);
    Pattern.Reduce 0;
  ]

let prop_degraded_synthesis_verifies =
  QCheck.Test.make
    ~name:"still-connected k-link degradations synthesize and verify" ~count:20
    (QCheck.make degradation_gen) (fun (topo_idx, k, seed) ->
      let topo = build_topo topo_idx in
      let n = Topology.num_npus topo in
      let rng = Rng.create seed in
      match Fault.random_connected_link_kills rng topo k with
      | None -> true (* no survivable fault set found; nothing to check *)
      | Some faults ->
        let degraded = Fault.apply topo faults in
        List.for_all
          (fun pattern ->
            match Resilience.synthesize ~seed ~faults topo (spec pattern n) with
            | Error _ -> false
            | Ok o -> (
              match o.Resilience.plan with
              | Resilience.Baseline _ -> false
              | Resilience.Synthesized result -> (
                match Synth.verify degraded result with Ok () -> true | Error _ -> false)))
          (supported_patterns n))

let multiepoch_gen =
  QCheck.Gen.(
    let* topo_idx = int_range 0 2 in
    let* epochs = int_range 2 3 in
    let* seed = int_range 0 10000 in
    return (topo_idx, epochs, seed))

let prop_multiepoch_repair_verifies =
  (* Repair over 2-3 random connectivity-preserving fault epochs must keep
     the final composite valid for every reduction-aware pattern. A subset
     of a connectivity-preserving kill set preserves connectivity, so one
     sampled set split one-kill-per-epoch makes a valid timeline. *)
  QCheck.Test.make
    ~name:"multi-epoch repair verifies end to end" ~count:8
    (QCheck.make multiepoch_gen) (fun (topo_idx, epochs, seed) ->
      let topo = build_topo topo_idx in
      let n = Topology.num_npus topo in
      let rng = Rng.create seed in
      match Fault.random_connected_link_kills rng topo epochs with
      | None -> true (* no survivable fault set found; nothing to check *)
      | Some kills ->
        List.for_all
          (fun pattern ->
            let healthy = Synth.synthesize ~seed topo (spec pattern n) in
            let makespan = healthy.Synth.schedule.Schedule.makespan in
            let events =
              List.mapi
                (fun i f -> (makespan *. (0.2 +. (0.2 *. float_of_int i)), [ f ]))
                kills
            in
            match Resilience.repair_timeline ~seed ~events topo healthy with
            | Error _ -> false
            | Ok tr ->
              List.length tr.Resilience.epochs = List.length events
              && tr.Resilience.verified = Ok ())
          [ Pattern.All_gather; Pattern.Reduce_scatter; Pattern.All_reduce ])

(* --- property: the kept prefix's reduction state ------------------------- *)

(* A random strongly connected fabric: a ring through a random permutation
   of the NPUs plus random extra links, parallel ones included, with α and
   β drawn from small sets so that some paths tie in cost and some differ. *)
let random_fabric rng ~npus ~extra =
  let topo = Topology.create npus in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let link () = Link.make ~alpha:(pick [| 0.5e-6; 1e-6 |]) ~beta:(pick [| 1e-11; 2e-11; 4e-11 |]) in
  let perm = Array.init npus Fun.id in
  Rng.shuffle_in_place rng perm;
  Array.iteri
    (fun i v -> ignore (Topology.add_link topo ~src:v ~dst:perm.((i + 1) mod npus) (link ())))
    perm;
  for _ = 1 to extra do
    let s = Rng.int rng npus and d = Rng.int rng npus in
    if s <> d then ignore (Topology.add_link topo ~src:s ~dst:d (link ()))
  done;
  topo

let replay_gen =
  QCheck.Gen.(
    let* npus = int_range 2 8 in
    let* extra = int_bound (2 * npus) in
    let* pattern = int_bound 4 in
    let* chunks_per_npu = int_range 1 2 in
    let* seed = int_bound 10_000 in
    let* cut = float_bound_inclusive 1. in
    return (npus, extra, pattern, chunks_per_npu, seed, cut))

let prop_kept_prefix_replay =
  (* Replaying the sends a healthy schedule finished by a cut time, as
     repair does, succeeds; per chunk the partial sums are pairwise disjoint,
     and with no full copy left they cover the chunk's contributors. *)
  QCheck.Test.make ~name:"kept-prefix replay partitions contributors" ~count:200
    (QCheck.make
       ~print:(fun (n, x, p, k, seed, cut) ->
         Printf.sprintf "npus %d extra %d pattern %d k %d seed %d cut %g" n x p k seed cut)
       replay_gen)
    (fun (npus, extra, p, chunks_per_npu, seed, cut) ->
      let topo = random_fabric (Rng.create seed) ~npus ~extra in
      let pattern = List.nth (supported_patterns npus) p in
      let sp = spec ~chunks_per_npu ~buffer_size:1e6 pattern npus in
      let healthy = Synth.synthesize ~seed topo sp in
      let combining, pull =
        match (pattern, healthy.Synth.phases) with
        | _, Some (rs, ag) -> (rs, ag)
        | (Pattern.Reduce_scatter | Pattern.Reduce _), None ->
          (healthy.Synth.schedule, Schedule.empty)
        | _, None -> (Schedule.empty, healthy.Synth.schedule)
      in
      let at = cut *. healthy.Synth.schedule.Schedule.makespan in
      let kept s =
        Schedule.make
          (List.filter
             (fun (x : Schedule.send) -> x.Schedule.finish <= at +. Schedule.eps_for at)
             (Schedule.sends s))
      in
      let contributions = Spec.precondition sp in
      match
        Schedule.Reduction.replay topo ~contributions ~num_chunks:(Spec.num_chunks sp)
          ~chunk_size:(Spec.chunk_size sp) ~combining:(kept combining) ~pull:(kept pull)
      with
      | Error e -> QCheck.Test.fail_report e
      | Ok state ->
        let partials = Schedule.Reduction.partials state in
        let positions = Schedule.Reduction.positions state in
        List.for_all
          (fun c ->
            let sets =
              List.filter_map (fun (_, c', set) -> if c' = c then Some set else None) partials
            in
            let union = List.sort_uniq compare (List.concat sets) in
            let disjoint = List.length union = List.length (List.concat sets) in
            let contributors =
              List.sort_uniq compare
                (List.filter_map (fun (v, c') -> if c' = c then Some v else None) contributions)
            in
            disjoint
            && (List.exists (fun (_, c') -> c' = c) positions || union = contributors))
          (List.init (Spec.num_chunks sp) Fun.id))

let prop_connected_kills_never_disconnect =
  QCheck.Test.make ~name:"random_connected_link_kills never disconnects" ~count:50
    (QCheck.make degradation_gen) (fun (topo_idx, k, seed) ->
      let topo = build_topo topo_idx in
      match Fault.random_connected_link_kills (Rng.create seed) topo k with
      | None -> true (* allowed to give up, never to return a breaking set *)
      | Some faults ->
        List.length faults = k
        && Topology.is_strongly_connected (Fault.apply topo faults))

(* --- cooperative deadlines ----------------------------------------------- *)

let test_zero_budget_degrades_to_baseline () =
  (* budget_ms = 0: the effective deadline is exhausted before synthesis
     starts, so the ladder must skip straight to the best feasible
     baseline on the (healthy) ring — graceful degradation, not a stall
     or an exception. *)
  match
    Resilience.synthesize ~budget_ms:0. (Builders.ring 6)
      (spec ~buffer_size:1e6 Pattern.All_gather 6)
  with
  | Error f -> Alcotest.failf "must degrade, not fail: %s" f.Resilience.message
  | Ok o ->
    (match o.Resilience.plan with
    | Resilience.Baseline _ -> ()
    | Resilience.Synthesized _ ->
      Alcotest.fail "no time budget left: a baseline plan was required");
    Alcotest.(check bool) "rungs record the exhausted deadline" true
      (List.mem "deadline exhausted" o.Resilience.rungs)

let test_expired_caller_deadline_degrades () =
  (* The absolute [deadline] parameter layers onto budget_ms the same
     way. *)
  match
    Resilience.synthesize
      ~deadline:(Tacos_util.Deadline.after_ms 0.)
      (Builders.mesh [| 3; 3 |])
      (spec ~buffer_size:1e6 Pattern.All_reduce 9)
  with
  | Error f -> Alcotest.failf "must degrade, not fail: %s" f.Resilience.message
  | Ok o -> (
    match o.Resilience.plan with
    | Resilience.Baseline _ -> ()
    | Resilience.Synthesized _ -> Alcotest.fail "baseline plan expected")

let test_failure_reports_deadline_slack () =
  (* A structured failure under a deadline carries the remaining slack;
     without one the field stays None. Killing NPU 4 disconnects the mesh
     either way. *)
  let topo = Builders.mesh [| 3; 3 |] in
  let faults = [ Fault.Kill_npu 4 ] in
  (match Resilience.synthesize ~budget_ms:60_000. ~faults topo (spec Pattern.All_gather 9) with
  | Ok _ -> Alcotest.fail "disconnected fabric must fail"
  | Error f -> (
    match f.Resilience.deadline_slack_ms with
    | Some slack ->
      Alcotest.(check bool) "slack below the budget" true (slack <= 60_000.)
    | None -> Alcotest.fail "failure under a budget must report slack"));
  match Resilience.synthesize ~faults topo (spec Pattern.All_gather 9) with
  | Ok _ -> Alcotest.fail "disconnected fabric must fail"
  | Error f ->
    Alcotest.(check bool) "no deadline, no slack" true
      (f.Resilience.deadline_slack_ms = None)

let () =
  Alcotest.run "resilience"
    [
      ( "faults",
        [
          Alcotest.test_case "samplers are deterministic" `Quick test_samplers_deterministic;
          Alcotest.test_case "NPU kill expands to incident links" `Quick
            test_killed_links_expands_npu_kills;
          Alcotest.test_case "apply kills and degrades" `Quick test_apply_kills_and_degrades;
          Alcotest.test_case "apply validates faults" `Quick test_apply_validates;
          Alcotest.test_case "validate rejects non-finite factor" `Quick
            test_validate_rejects_non_finite_factor;
          Alcotest.test_case "degraded topology keeps hierarchy metadata" `Quick
            test_degraded_metadata_carried;
          Alcotest.test_case "connectivity reports surviving component" `Quick
            test_connectivity_report;
          Alcotest.test_case "disconnecting fault is named" `Quick
            test_disconnecting_fault_named;
          Alcotest.test_case "connected sampler keeps the fabric connected" `Quick
            test_connected_sampler_respects_connectivity;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "synthesizes on a degraded fabric" `Quick
            test_ladder_synthesizes_on_degraded;
          Alcotest.test_case "structured failure on disconnection" `Quick
            test_ladder_structured_failure_on_disconnected;
          Alcotest.test_case "unsupported pattern never raises" `Quick
            test_ladder_never_raises_on_unsupported;
          Alcotest.test_case "baseline probe finds a feasible algorithm" `Quick
            test_ladder_baseline_fallback_feasible;
          Alcotest.test_case "fallback counters" `Quick test_ladder_counts_fallbacks;
          Alcotest.test_case "zero budget degrades to baseline" `Quick
            test_zero_budget_degrades_to_baseline;
          Alcotest.test_case "expired caller deadline degrades" `Quick
            test_expired_caller_deadline_degrades;
          Alcotest.test_case "failure reports deadline slack" `Quick
            test_failure_reports_deadline_slack;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "classifies broken schedules" `Quick
            test_analysis_classifies_broken;
          Alcotest.test_case "classifies degraded timing" `Quick
            test_analysis_classifies_degraded_timing;
          Alcotest.test_case "intact without faults" `Quick
            test_analysis_intact_without_faults;
        ] );
      ( "repair",
        [
          Alcotest.test_case "timeline lowers fault sets" `Quick test_timeline_lowers_faults;
          Alcotest.test_case "suffix repair on mesh all-gather" `Quick
            test_repair_suffix_on_mesh_allgather;
          Alcotest.test_case "late fault needs no repair" `Quick
            test_repair_complete_when_fault_lands_late;
          Alcotest.test_case "invalid kept prefix re-synthesizes" `Quick
            test_repair_rejects_invalid_prefix;
          Alcotest.test_case "structured failure on disconnection" `Quick
            test_repair_structured_failure_on_disconnection;
          Alcotest.test_case "all-reduce phase split" `Quick
            test_repair_allreduce_phase_split;
          Alcotest.test_case "rs-phase suffix repair on mesh 5x5" `Quick
            test_repair_allreduce_rs_phase_mesh5x5;
          Alcotest.test_case "repair reuses the cached TEN" `Quick
            test_repair_reuses_ten_and_searches_less;
          Alcotest.test_case "connected sampler is deterministic" `Quick
            test_connected_sampler_deterministic;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "two-epoch repair" `Quick test_repair_timeline_two_epochs;
          Alcotest.test_case "validate_events rejects bad timelines" `Quick
            test_validate_events_rejects_bad_timelines;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_degraded_synthesis_verifies;
            prop_connected_kills_never_disconnect;
            prop_multiepoch_repair_verifies;
            prop_kept_prefix_replay;
          ] );
    ]
