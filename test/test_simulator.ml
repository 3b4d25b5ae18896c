(* Tests for the congestion-aware analytical network simulator: FCFS link
   serialization, store-and-forward routing, dependency handling, parallel
   links, and the statistics the figures are built from. *)

open Tacos_topology
open Tacos_collective
open Tacos_sim

let feq = Alcotest.float 1e-9

let two_npu_line alpha beta =
  let t = Topology.create 2 in
  Topology.add_bidir t 0 1 (Link.make ~alpha ~beta);
  t

let add = Program.add

let test_single_transfer () =
  let topo = two_npu_line 2. 0.5 in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "alpha + beta*size" 7. r.Engine.finish_time

let test_fcfs_serialization () =
  (* Two messages racing for one link serialize back to back; the
     propagation latency of the second overlaps the first's. *)
  let topo = two_npu_line 1. 1. in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "serialized" 3. r.Engine.finish_time

let test_parallel_links_run_concurrently () =
  let topo = Topology.create 2 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1. ~beta:1.);
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1. ~beta:1.);
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "spread over both links" 2. r.Engine.finish_time

let test_store_and_forward () =
  (* 0 -> 1 -> 2: a routed transfer pays each hop in sequence. *)
  let topo = Topology.create 3 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1. ~beta:1.);
  Topology.add_bidir topo 1 2 (Link.make ~alpha:1. ~beta:1.);
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:2 ~size:1. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "two hops" 4. r.Engine.finish_time

let test_dependencies_chain () =
  let topo = two_npu_line 1. 0. in
  let b = Program.builder () in
  let first = add b ~src:0 ~dst:1 ~size:0. () in
  let second = add b ~deps:[ first ] ~src:1 ~dst:0 ~size:0. () in
  ignore (add b ~deps:[ second ] ~src:0 ~dst:1 ~size:0. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "three chained alphas" 3. r.Engine.finish_time

let test_local_transfer_is_instant () =
  let topo = two_npu_line 1. 0. in
  let b = Program.builder () in
  let gate = add b ~src:0 ~dst:0 ~size:0. () in
  ignore (add b ~deps:[ gate ] ~src:0 ~dst:1 ~size:0. ());
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "only the link hop costs" 1. r.Engine.finish_time

let test_contention_vs_free_path () =
  (* Congestion effect: three transfers into the same link take 3x as long
     as three transfers on disjoint links (the Fig. 1/2a mechanism). *)
  let ring = Builders.ring ~link:(Link.make ~alpha:0. ~beta:1.) 6 in
  let contended = Program.builder () in
  for _ = 1 to 3 do
    ignore (add contended ~src:0 ~dst:1 ~size:1. ())
  done;
  let spread = Program.builder () in
  ignore (add spread ~src:0 ~dst:1 ~size:1. ());
  ignore (add spread ~src:2 ~dst:3 ~size:1. ());
  ignore (add spread ~src:4 ~dst:5 ~size:1. ());
  let rc = Engine.run ring (Program.build contended) in
  let rs = Engine.run ring (Program.build spread) in
  Alcotest.check feq "serialized" 3. rc.Engine.finish_time;
  Alcotest.check feq "parallel" 1. rs.Engine.finish_time

let test_link_stats () =
  let topo = two_npu_line 1. 1. in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:3. ());
  ignore (add b ~src:0 ~dst:1 ~size:2. ());
  let r = Engine.run topo (Program.build b) in
  let forward = (List.hd (Topology.find_links topo ~src:0 ~dst:1)).Topology.id in
  Alcotest.check feq "bytes" 5. r.Engine.link_bytes.(forward);
  (* busy counts serialization only; alpha is propagation, not occupancy. *)
  Alcotest.check feq "busy" 5. r.Engine.link_busy.(forward);
  Alcotest.(check int) "two service intervals" 2
    (List.length r.Engine.link_intervals.(forward))

let test_utilization_accounting () =
  let topo = two_npu_line 0. 1. in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:2. ());
  let r = Engine.run topo (Program.build b) in
  (* One of two links busy the whole run. *)
  Alcotest.check feq "average" 0.5 (Engine.average_utilization topo r);
  match Engine.utilization_timeline topo r ~bins:4 with
  | bins ->
    Alcotest.(check int) "bins" 4 (List.length bins);
    List.iter (fun (_, u) -> Alcotest.check feq "uniform" 0.5 u) bins

let test_cyclic_program_rejected () =
  (* validate_acyclic is checked before running. Builders cannot produce a
     cycle, so hit the engine-level completeness guard via a dangling dep
     instead. *)
  let b = Program.builder () in
  (match add b ~deps:[ 5 ] ~src:0 ~dst:1 ~size:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dangling dep accepted")

let test_cyclic_import_is_typed_error () =
  (* A forged cyclic program (only Program.import can make one) must come
     back as a typed Simulation_error naming the offending transfer — not
     the old bare Failure. *)
  let topo = Builders.ring 2 in
  let program =
    Program.import
      [|
        ("a", 0, 1, 1., [ 1 ]);  (* depends on a later transfer: cycle *)
        ("b", 1, 0, 1., [ 0 ]);
      |]
  in
  (match Program.validate_acyclic program with
  | Ok () -> Alcotest.fail "cycle must not validate"
  | Error _ -> ());
  match Engine.run topo program with
  | exception Engine.Simulation_error { tid; tag; kind = Engine.Cyclic_program { dep } } ->
    Alcotest.(check int) "offending transfer" 0 tid;
    Alcotest.(check string) "its tag" "a" tag;
    Alcotest.(check int) "forward dep" 1 dep
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "cyclic program must not run"

(* A NaN size would make every hold and event time of the replay NaN,
   which no event order can sort; an infinite one makes them NaN wherever
   it meets a zero-cost link. Every way into a program refuses both, and
   negative sizes. *)
let test_non_finite_sizes_rejected () =
  let spec = Spec.make ~pattern:Pattern.All_gather ~npus:2 () in
  let schedule = (Tacos.Synthesizer.synthesize (Builders.ring 2) spec).schedule in
  List.iter
    (fun size ->
      let what = Printf.sprintf "size %g" size in
      Alcotest.check_raises ("add, " ^ what)
        (Invalid_argument "Program.add: size must be finite and non-negative") (fun () ->
          ignore (add (Program.builder ()) ~src:0 ~dst:1 ~size ()));
      Alcotest.check_raises ("import, " ^ what)
        (Invalid_argument "Program.import: size must be finite and non-negative")
        (fun () -> ignore (Program.import [| ("a", 0, 1, size, []) |]));
      Alcotest.check_raises ("of_schedule, " ^ what)
        (Invalid_argument "Program.of_schedule: chunk size must be finite and non-negative")
        (fun () -> ignore (Program.of_schedule ~chunk_size:size schedule)))
    [ nan; infinity; neg_infinity; -1. ]

let test_simulates_synthesized_schedule () =
  (* Program.of_schedule: the simulator replays a TACOS schedule in (at
     most) its synthesized makespan — the schedule is congestion-free, and
     work-conserving FCFS can only start transfers earlier. *)
  let topo = Builders.mesh ~link:(Link.make ~alpha:1. ~beta:0.) [| 3; 3 |] in
  let spec = Spec.make ~pattern:Pattern.All_gather ~npus:9 () in
  let result = Tacos.Synthesizer.synthesize topo spec in
  let program = Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.schedule in
  let r = Engine.run topo program in
  (* of_schedule keeps only the dependency structure; the greedy FCFS
     replay may reshuffle link assignments either way (work-conserving can
     start earlier, scheduling anomalies can finish later), so only the
     ballpark is guaranteed. *)
  Alcotest.(check bool) "within 60% above the schedule" true
    (r.Engine.finish_time <= result.collective_time *. 1.6);
  Alcotest.(check bool) "within 2x below the schedule" true
    (r.Engine.finish_time >= result.collective_time /. 2.)

let test_routing_size_override () =
  (* With a fat-but-slow-start link vs a thin-but-instant link, the chosen
     route depends on the size used to cost paths: the program's mean
     transfer size. *)
  let topo = Topology.create 3 in
  (* Path A: direct, alpha=10, fast. Path B: two hops, alpha=0, slow. *)
  ignore (Topology.add_link topo ~src:0 ~dst:2 (Link.make ~alpha:10. ~beta:0.001));
  ignore (Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:0. ~beta:1.));
  ignore (Topology.add_link topo ~src:1 ~dst:2 (Link.make ~alpha:0. ~beta:1.));
  ignore (Topology.add_link topo ~src:2 ~dst:0 (Link.make ~alpha:0. ~beta:1.));
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:2 ~size:1. ());
  let small = Engine.run topo (Program.build b) in
  let b2 = Program.builder () in
  ignore (add b2 ~src:0 ~dst:2 ~size:1000. ());
  let large = Engine.run topo (Program.build b2) in
  Alcotest.check feq "small goes the cheap-alpha way" 2. small.Engine.finish_time;
  Alcotest.check feq "large takes the fat link" 11. large.Engine.finish_time

let test_blocking_alpha_model () =
  (* Under Blocking_alpha the link is held for alpha too: two queued
     messages finish at 2(alpha + beta*size). *)
  let topo = two_npu_line 1. 1. in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  let blocking = Engine.run ~model:Engine.Blocking_alpha topo (Program.build b) in
  Alcotest.check feq "alpha blocks" 4. blocking.Engine.finish_time;
  let b2 = Program.builder () in
  ignore (add b2 ~src:0 ~dst:1 ~size:1. ());
  ignore (add b2 ~src:0 ~dst:1 ~size:1. ());
  let pipelined = Engine.run topo (Program.build b2) in
  Alcotest.check feq "alpha pipelines" 3. pipelined.Engine.finish_time

let test_blocking_alpha_spreads_parallel_links () =
  (* Regression: enqueue-time backlog accounting used the pipelined hold
     (serialization only), so under Blocking_alpha with beta=0 every queued
     message predicted an instantly-free link and all of them piled onto the
     first of two identical parallel links (8 alphas serialized instead of
     4). Backlog must advance by the same hold the service model charges. *)
  let topo = Topology.create 2 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1. ~beta:0.);
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1. ~beta:0.);
  let b = Program.builder () in
  for _ = 1 to 8 do
    ignore (add b ~src:0 ~dst:1 ~size:1. ())
  done;
  let r = Engine.run ~model:Engine.Blocking_alpha topo (Program.build b) in
  Alcotest.check feq "4 rounds of blocked alpha" 4. r.Engine.finish_time;
  List.iter
    (fun (l : Topology.edge) ->
      Alcotest.check feq "even bytes split" 4. r.Engine.link_bytes.(l.Topology.id))
    (Topology.find_links topo ~src:0 ~dst:1)

let test_pipelined_spreads_parallel_links () =
  (* The same even-split property for the default model, where the hold is
     the serialization time. *)
  let topo = Topology.create 2 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:0. ~beta:1.);
  Topology.add_bidir topo 0 1 (Link.make ~alpha:0. ~beta:1.);
  let b = Program.builder () in
  for _ = 1 to 8 do
    ignore (add b ~src:0 ~dst:1 ~size:1. ())
  done;
  let r = Engine.run topo (Program.build b) in
  Alcotest.check feq "4 serialized per link" 4. r.Engine.finish_time;
  List.iter
    (fun (l : Topology.edge) ->
      Alcotest.check feq "even bytes split" 4. r.Engine.link_bytes.(l.Topology.id))
    (Topology.find_links topo ~src:0 ~dst:1)

let test_deterministic () =
  let topo = Builders.torus [| 3; 3 |] in
  let spec = Spec.make ~buffer_size:1e6 ~pattern:Pattern.All_reduce ~npus:9 () in
  let p () = Tacos_baselines.Algo.(program ring) topo spec in
  let a = Engine.run topo (p ()) in
  let b = Engine.run topo (p ()) in
  Alcotest.check feq "identical runs" a.Engine.finish_time b.Engine.finish_time

(* --- mid-flight faults -------------------------------------------------- *)

let link_id topo ~src ~dst =
  match Topology.find_links topo ~src ~dst with
  | e :: _ -> e.Topology.id
  | [] -> Alcotest.failf "no link %d->%d" src dst

let test_fault_reroutes_on_ring () =
  (* 4-node ring, one transfer 0->1 over the direct link. Killing that link
     halfway through service must abort the message, un-credit the unsent
     half, and reroute it the long way (0->3->2->1). *)
  let topo = Builders.ring ~link:(Link.make ~alpha:0. ~beta:1.) 4 in
  let victim = link_id topo ~src:0 ~dst:1 in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  let r =
    Engine.run ~faults:[ Engine.Link_dies { link = victim; at = 5. } ] topo
      (Program.build b)
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "dead link's service interval truncated at the fault" [ (0., 5.) ]
    r.Engine.link_intervals.(victim);
  List.iter
    (fun (s, e) ->
      Alcotest.(check bool) "no activity on the dead link after the fault" true
        (s <= 5. && e <= 5.))
    r.Engine.link_intervals.(victim);
  Alcotest.check feq "unsent half un-credited" 5. r.Engine.link_bytes.(victim);
  Alcotest.check feq "busy truncated" 5. r.Engine.link_busy.(victim);
  (* Rerouted from node 0 at t=5 over three 10-second hops. *)
  Alcotest.check feq "rerouted the long way" 35. r.Engine.finish_time;
  Alcotest.(check int) "nothing stranded" 0 (List.length r.Engine.stranded);
  Alcotest.check feq "hop 0->3 carried it" 10. r.Engine.link_bytes.(link_id topo ~src:0 ~dst:3)

let test_fault_strands_when_disconnected () =
  (* Two NPUs, one link each way: killing 0->1 mid-service leaves the
     destination unreachable — a structured stranding, not an exception. *)
  let topo = Topology.create 2 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:0. ~beta:1.);
  let victim = link_id topo ~src:0 ~dst:1 in
  let b = Program.builder () in
  let first = add b ~src:0 ~dst:1 ~size:10. () in
  ignore (add b ~deps:[ first ] ~src:1 ~dst:0 ~size:1. ());
  let r =
    Engine.run ~faults:[ Engine.Link_dies { link = victim; at = 5. } ] topo
      (Program.build b)
  in
  (match r.Engine.stranded with
  | [ s ] ->
    Alcotest.(check int) "stranded transfer" first s.Engine.tid;
    Alcotest.(check int) "stuck at the source" 0 s.Engine.at_npu;
    Alcotest.(check int) "towards NPU 1" 1 s.Engine.dst;
    Alcotest.check feq "discovered at the fault time" 5. s.Engine.time
  | l -> Alcotest.failf "expected one stranding, got %d" (List.length l));
  Alcotest.(check bool) "stranded transfer never finishes" true
    (r.Engine.transfer_finish.(first) = infinity);
  Alcotest.(check bool) "dependent of a stranded transfer never finishes" true
    (r.Engine.transfer_finish.(first + 1) = infinity)

let test_fault_degrade_applies_to_later_services () =
  (* Two queued messages: the first is mid-service when the link degrades
     and finishes at its negotiated rate; the second serializes at the
     degraded beta. *)
  let topo = two_npu_line 0. 1. in
  let victim = link_id topo ~src:0 ~dst:1 in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  let r =
    Engine.run
      ~faults:[ Engine.Link_degrades { link = victim; factor = 2.; at = 5. } ]
      topo (Program.build b)
  in
  Alcotest.check feq "committed service unchanged, next one at 2x beta" 30.
    r.Engine.finish_time

(* Link.make allows α = 0, and 0 × ∞ is NaN: an infinite factor would give
   the degraded link a NaN latency. Fault.check_factor refuses it too. *)
let test_fault_infinite_degradation_rejected () =
  let topo = two_npu_line 0. 1. in
  let victim = link_id topo ~src:0 ~dst:1 in
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  Alcotest.check_raises "infinite factor"
    (Invalid_argument "Engine.run: degradation factor is not finite") (fun () ->
      ignore
        (Engine.run
           ~faults:[ Engine.Link_degrades { link = victim; factor = infinity; at = 5. } ]
           topo (Program.build b)))

let test_fault_recovery_restores_link () =
  (* Two parallel 0->1 links. Kill one mid-service (its message drains onto
     the survivor), then recover it; a transfer launched after the recovery
     must prefer the recovered idle link over the backlogged survivor. *)
  let topo = Topology.create 2 in
  let a = Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:0. ~beta:1.) in
  ignore (Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:0. ~beta:1.));
  ignore (Topology.add_link topo ~src:1 ~dst:0 (Link.make ~alpha:0. ~beta:1.));
  let b = Program.builder () in
  let m1 = add b ~src:0 ~dst:1 ~size:10. () in
  ignore (add b ~src:0 ~dst:1 ~size:10. ());
  ignore (add b ~deps:[ m1 ] ~src:0 ~dst:1 ~size:10. ());
  let r =
    Engine.run
      ~faults:
        [
          Engine.Link_dies { link = a; at = 5. };
          Engine.Link_recovers { link = a; at = 12. };
        ]
      topo (Program.build b)
  in
  (* m1 on link a aborted at 5, drains behind m2 on link b (busy 0-10),
     re-served 10-20; m3 launches at m1's completion (20) and must take the
     recovered link a, not queue behind b. *)
  Alcotest.check feq "drained message completes on the survivor" 30. r.Engine.finish_time;
  (match r.Engine.link_intervals.(a) with
  | [ (0., 5.); (s, e) ] ->
    Alcotest.check feq "recovered link serves the late transfer" 20. s;
    Alcotest.check feq "at the healthy rate" 30. e
  | l -> Alcotest.failf "unexpected intervals on recovered link (%d)" (List.length l));
  Alcotest.(check int) "nothing stranded" 0 (List.length r.Engine.stranded)

let test_fault_dead_link_ineligible_at_enqueue () =
  (* A link dead from t=0 must not win the least-backlogged parallel-link
     choice on its stale zero backlog. *)
  let topo = Topology.create 2 in
  let a = Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:0. ~beta:1.) in
  let b' = Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:0. ~beta:1.) in
  ignore (Topology.add_link topo ~src:1 ~dst:0 (Link.make ~alpha:0. ~beta:1.));
  let b = Program.builder () in
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  ignore (add b ~src:0 ~dst:1 ~size:1. ());
  let r =
    Engine.run ~faults:[ Engine.Link_dies { link = a; at = 0. } ] topo
      (Program.build b)
  in
  Alcotest.check feq "dead link carries nothing" 0. r.Engine.link_bytes.(a);
  Alcotest.check feq "survivor carries both" 2. r.Engine.link_bytes.(b');
  Alcotest.check feq "serialized on the survivor" 2. r.Engine.finish_time

let test_fault_replay_deterministic () =
  (* Equal-time events are common at fault timestamps; two identical runs
     must produce byte-identical reports. *)
  let topo = Builders.torus [| 3; 3 |] in
  let spec = Spec.make ~buffer_size:1e6 ~pattern:Pattern.All_reduce ~npus:9 () in
  let faults =
    [
      Engine.Link_dies { link = 0; at = 1e-6 };
      Engine.Link_degrades { link = 1; factor = 2.; at = 1e-6 };
      Engine.Link_dies { link = 2; at = 1e-6 };
    ]
  in
  let run () =
    Engine.run ~faults topo (Tacos_baselines.Algo.(program ring) topo spec)
  in
  let a = run () and b = run () in
  Alcotest.check feq "same finish" a.Engine.finish_time b.Engine.finish_time;
  Alcotest.(check bool) "same per-link bytes" true (a.Engine.link_bytes = b.Engine.link_bytes);
  Alcotest.(check bool) "same per-transfer finishes" true
    (a.Engine.transfer_finish = b.Engine.transfer_finish)

let test_fault_no_route_without_faults_is_typed () =
  (* A healthy-fabric routing hole raises the typed error, not Failure. *)
  let topo = Topology.create 2 in
  ignore (Topology.add_link topo ~src:1 ~dst:0 (Link.make ~alpha:0. ~beta:1.));
  let b = Program.builder () in
  ignore (add b ~tag:"t0" ~src:0 ~dst:1 ~size:1. ());
  match Engine.run topo (Program.build b) with
  | _ -> Alcotest.fail "expected Simulation_error"
  | exception Engine.Simulation_error { tid = 0; kind = Engine.No_route _; _ } -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let () =
  Alcotest.run "simulator"
    [
      ( "engine",
        [
          Alcotest.test_case "single transfer" `Quick test_single_transfer;
          Alcotest.test_case "FCFS serialization" `Quick test_fcfs_serialization;
          Alcotest.test_case "parallel links" `Quick test_parallel_links_run_concurrently;
          Alcotest.test_case "store and forward" `Quick test_store_and_forward;
          Alcotest.test_case "dependency chain" `Quick test_dependencies_chain;
          Alcotest.test_case "local transfers instant" `Quick
            test_local_transfer_is_instant;
          Alcotest.test_case "contention vs free path" `Quick test_contention_vs_free_path;
        ] );
      ( "stats",
        [
          Alcotest.test_case "link stats" `Quick test_link_stats;
          Alcotest.test_case "utilization" `Quick test_utilization_accounting;
        ] );
      ( "program",
        [
          Alcotest.test_case "dangling dep rejected" `Quick test_cyclic_program_rejected;
          Alcotest.test_case "cyclic import is a typed error" `Quick
            test_cyclic_import_is_typed_error;
          Alcotest.test_case "non-finite sizes rejected" `Quick
            test_non_finite_sizes_rejected;
          Alcotest.test_case "replays TACOS schedules" `Quick
            test_simulates_synthesized_schedule;
          Alcotest.test_case "routing size matters" `Quick test_routing_size_override;
          Alcotest.test_case "blocking-alpha model" `Quick test_blocking_alpha_model;
          Alcotest.test_case "blocking-alpha spreads parallel links" `Quick
            test_blocking_alpha_spreads_parallel_links;
          Alcotest.test_case "pipelined spreads parallel links" `Quick
            test_pipelined_spreads_parallel_links;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ring reroutes around a dead link" `Quick
            test_fault_reroutes_on_ring;
          Alcotest.test_case "disconnection strands, not raises" `Quick
            test_fault_strands_when_disconnected;
          Alcotest.test_case "degrade hits later services" `Quick
            test_fault_degrade_applies_to_later_services;
          Alcotest.test_case "infinite degradation rejected" `Quick
            test_fault_infinite_degradation_rejected;
          Alcotest.test_case "recovery restores the link" `Quick
            test_fault_recovery_restores_link;
          Alcotest.test_case "dead link ineligible at enqueue" `Quick
            test_fault_dead_link_ineligible_at_enqueue;
          Alcotest.test_case "faulty replay is deterministic" `Quick
            test_fault_replay_deterministic;
          Alcotest.test_case "healthy no-route is typed" `Quick
            test_fault_no_route_without_faults_is_typed;
        ] );
    ]
