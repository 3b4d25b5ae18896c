(* Allocation budgets: words allocated per send or per transfer by the
   matcher, the group planner's compose, the JSON encoder and the replay.

   They run in a process of their own, which runs nothing else and no
   other domain. The runtime's allocation counters read differently for
   the same call once other domains have run in the process: 14.39 words
   per send for the compose case after test_groups' parallel tests,
   against 12.75 in a fresh process. Every case is single-domain. *)

open Tacos_topology
open Tacos_collective
open Tacos_sim
module Json = Tacos_util.Json
module Plan = Tacos_groups.Plan
module Synth = Tacos.Synthesizer

(* The matcher allocates per send only the goal's postcondition pair, the
   boxed finish time it pushes on its event heap, and its share of the
   per-trial arrays. The budget is the measured 20.4 words, rounded up. *)
let test_synthesize_allocation_budget () =
  let topo = Result.get_ok (Parse.parse_topology "mesh:8x8") in
  let spec =
    Spec.make ~chunks_per_npu:4 ~buffer_size:64e6 ~pattern:Pattern.All_gather ~npus:64 ()
  in
  let run () = Synth.synthesize ~seed:1 ~trials:1 ~domains:1 topo spec in
  ignore (run ());
  let before = Gc.minor_words () in
  let result = run () in
  let sends = Schedule.num_sends result.Synth.schedule in
  let words = (Gc.minor_words () -. before) /. float_of_int sends in
  Alcotest.(check int) "sends" (63 * 256) sends;
  if words > 21. then Alcotest.failf "synthesize allocates %.2f words per send" words

(* Composing writes each send once, into the composed schedule's six
   arrays; the rest is the sub-syntheses, the shifted copy of each distinct
   sub-schedule and the partition checks. The composed arrays go straight
   to the major heap, which [Gc.minor_words] misses, so the count is
   [Gc.allocated_bytes]. The budget is the measured 12.75 words, rounded
   up; the lift-then-merge composition it replaced allocated 19.79. *)
let test_compose_allocation_budget () =
  let topo = Result.get_ok (Parse.parse_topology "mesh:16x16") in
  let groups =
    match Plan.decompose topo Plan.Auto with
    | Ok groups -> groups
    | Error e -> Alcotest.failf "decompose failed: %s" e
  in
  let spec =
    Spec.make ~chunks_per_npu:1 ~buffer_size:64e6 ~pattern:Pattern.All_gather
      ~npus:(Topology.num_npus topo) ()
  in
  let run () = Plan.synthesize ~seed:1 topo spec ~groups in
  ignore (run ());
  let before = Gc.allocated_bytes () in
  let plan = run () in
  let bytes = Gc.allocated_bytes () -. before in
  let sends = Schedule.num_sends plan.Plan.result.Tacos.Synthesizer.schedule in
  let words = bytes /. float_of_int (Sys.word_size / 8) /. float_of_int sends in
  Alcotest.(check int) "sends" (256 * 255) sends;
  if words > 13. then Alcotest.failf "Plan.synthesize allocates %.2f words per send" words

(* Encoding a schedule's JSON value allocates only the memo of its distinct
   numbers and the buffer's first, small blocks; every send is written into
   the buffer. The budget is the measured 0.22 words per send, rounded up. *)
let test_encode_allocation_budget () =
  let topo = Result.get_ok (Parse.parse_topology "torus:4x4x4") in
  let spec =
    Spec.make ~chunks_per_npu:1 ~buffer_size:16e6 ~pattern:Pattern.All_reduce ~npus:64 ()
  in
  let schedule = (Synth.synthesize topo spec).Synth.schedule in
  let doc = Schedule.to_json_value ~spec schedule in
  ignore (Json.encode doc);
  let before = Gc.minor_words () in
  ignore (Json.encode doc);
  let sends = Schedule.num_sends schedule in
  let words = (Gc.minor_words () -. before) /. float_of_int sends in
  Alcotest.(check int) "sends" 8064 sends;
  if words > 0.25 then Alcotest.failf "Json.encode allocates %.2f words per send" words

(* Replay allocates per transfer only what its inputs and report hold: the
   boxed key of each event push and the report's service intervals. The
   budget is the measured 18.3 words, rounded up. *)
let test_run_allocation_budget () =
  let topo = Result.get_ok (Parse.parse_topology "mesh:8x8") in
  let spec =
    Spec.make ~chunks_per_npu:4 ~buffer_size:64e6 ~pattern:Pattern.All_gather ~npus:64 ()
  in
  let result = Synth.synthesize ~seed:1 ~trials:1 ~domains:1 topo spec in
  let program =
    Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule
  in
  ignore (Engine.run topo program);
  let before = Gc.minor_words () in
  let report = Engine.run topo program in
  let words = (Gc.minor_words () -. before) /. float_of_int (Program.num_transfers program) in
  Alcotest.(check bool) "replayed" true (report.Engine.finish_time > 0.);
  if words > 19. then Alcotest.failf "Engine.run allocates %.2f words per transfer" words

let () =
  Alcotest.run "budgets"
    [
      ( "allocation",
        [
          Alcotest.test_case "synthesize words per send" `Quick
            test_synthesize_allocation_budget;
          Alcotest.test_case "compose words per send" `Quick
            test_compose_allocation_budget;
          Alcotest.test_case "encode words per send" `Quick test_encode_allocation_budget;
          Alcotest.test_case "Engine.run words per transfer" `Quick test_run_allocation_budget;
        ] );
    ]
