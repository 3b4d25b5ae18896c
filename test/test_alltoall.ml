(* Tests for the time-space router extension: All-to-All, Gather and
   Scatter synthesis with the one-chunk-per-link TEN discipline. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Router = Tacos.Router

let time = Alcotest.float 1e-9
let unit_link = Link.make ~alpha:1. ~beta:0.

let spec ?(chunks_per_npu = 1) ?(buffer_size = 1.) npus =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern:Pattern.All_to_all ~npus ()

let check_valid topo (r : Synth.result) =
  match Schedule.validate topo r.Synth.spec r.Synth.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid All-to-All schedule: %s" e

let test_spec_conditions () =
  let s = spec 3 in
  Alcotest.(check int) "chunks" 9 (Spec.num_chunks s);
  Alcotest.(check int) "chunk id" 5 (Spec.a2a_chunk s ~src:1 ~dst:2 0);
  Alcotest.(check int) "dest decoding" 2 (Spec.a2a_dest s 5);
  Alcotest.(check int) "owner is the source" 1 (Spec.owner s 5);
  (* Every chunk starts at its source and must end at its destination. *)
  List.iter
    (fun (d, c) -> Alcotest.(check int) "post at dest" (Spec.a2a_dest s c) d)
    (Spec.postcondition s)

let test_fc_one_shot () =
  (* On FullyConnected, All-to-All is a single direct exchange. *)
  let topo = Builders.fully_connected ~link:unit_link 5 in
  let r = Router.synthesize topo (spec 5) in
  check_valid topo r;
  Alcotest.check time "one span" 1.0 r.Synth.collective_time

let test_ring_serializes () =
  (* Unidirectional unit ring of 4: total relayed hops = sum of distances
     = 4 * (1+2+3) = 24 over 4 links => at least 6 time units. *)
  let topo = Builders.ring ~link:unit_link ~bidirectional:false 4 in
  let r = Router.synthesize topo (spec 4) in
  check_valid topo r;
  Alcotest.(check bool) "bisection lower bound" true (r.Synth.collective_time >= 6.0 -. 1e-9)

let test_mesh_validates_with_chunks () =
  let topo = Builders.mesh ~link:unit_link [| 3; 3 |] in
  let r = Router.synthesize topo (spec ~chunks_per_npu:2 9) in
  check_valid topo r

let test_deterministic () =
  let topo = Builders.mesh ~link:unit_link [| 3; 2 |] in
  let a = Router.synthesize ~seed:4 topo (spec 6) in
  let b = Router.synthesize ~seed:4 topo (spec 6) in
  Alcotest.check time "same seed, same makespan" a.Synth.collective_time
    b.Synth.collective_time

let test_matching_loop_rejects_a2a () =
  let topo = Builders.ring 4 in
  match Synth.synthesize topo (spec 4) with
  | exception Synth.Unsupported _ -> ()
  | _ -> Alcotest.fail "the matching loop should defer All-to-All to the router"

let test_beats_or_matches_direct_on_mesh () =
  (* Congestion-aware reservations should not lose to blindly routed Direct
     under the simulator. *)
  let link = Link.of_bandwidth 50e9 in
  let topo = Builders.mesh ~link [| 4; 4 |] in
  let s = spec ~buffer_size:64e6 16 in
  let r = Router.synthesize topo s in
  check_valid topo r;
  let program = Tacos_sim.Program.of_schedule ~chunk_size:(Spec.chunk_size s) r.Synth.schedule in
  let tacos = (Tacos_sim.Engine.run topo program).Tacos_sim.Engine.finish_time in
  let direct = Tacos_baselines.Algo.collective_time Tacos_baselines.Algo.Direct topo s in
  Alcotest.(check bool) "within 10%% of Direct or better" true (tacos <= direct *. 1.10)

(* --- Gather / Scatter through the router -------------------------------- *)

let test_gather_to_root () =
  let topo = Builders.mesh ~link:unit_link [| 3; 3 |] in
  let s = Spec.make ~buffer_size:9. ~pattern:(Pattern.Gather 4) ~npus:9 () in
  let r = Router.synthesize topo s in
  (match Schedule.validate topo s r.Synth.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid gather: %s" e);
  (* The mesh center has 4 in-links and must ingest 8 unit chunks: >= 2 spans. *)
  Alcotest.(check bool) "ingress bound" true (r.Synth.collective_time >= 2.0 -. 1e-9)

let test_scatter_from_root () =
  let topo = Builders.ring ~link:unit_link 6 in
  let s = Spec.make ~buffer_size:6. ~pattern:(Pattern.Scatter 0) ~npus:6 () in
  let r = Router.synthesize topo s in
  match Schedule.validate topo s r.Synth.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid scatter: %s" e

let test_gather_scatter_same_cost_regime () =
  (* On a symmetric topology, scatter is gather run backwards; the greedy
     router is not exactly symmetric (different job orders break ties
     differently), but both must sit between the root-degree bound (8 unit
     chunks over 4 links = 2 spans) and a small constant above it. *)
  let topo = Builders.torus ~link:unit_link [| 3; 3 |] in
  let gather = Spec.make ~buffer_size:9. ~pattern:(Pattern.Gather 0) ~npus:9 () in
  let scatter = Spec.make ~buffer_size:9. ~pattern:(Pattern.Scatter 0) ~npus:9 () in
  let g = (Router.synthesize ~seed:2 topo gather).Synth.collective_time in
  let sc = (Router.synthesize ~seed:2 topo scatter).Synth.collective_time in
  List.iter
    (fun t -> Alcotest.(check bool) "within the cost regime" true (t >= 2.0 && t <= 6.0))
    [ g; sc ];
  Alcotest.(check bool) "comparable" true (Float.abs (g -. sc) <= 2.0)

let test_router_rejects_matching_patterns () =
  let topo = Builders.ring 4 in
  match
    Router.synthesize topo (Spec.make ~pattern:Pattern.All_gather ~npus:4 ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "All-Gather belongs to the matching loop"

(* [synthesize_any] routes All-to-All, Gather and Scatter and hands every
   other pattern to the matching loop, bit for bit. *)
let test_synthesize_any_dispatch () =
  let topo = Builders.mesh ~link:unit_link [| 3; 3 |] in
  let same what (a : Synth.result) (b : Synth.result) =
    Alcotest.(check string) what (Schedule.to_json a.schedule) (Schedule.to_json b.schedule)
  in
  List.iter
    (fun pattern ->
      let s = Spec.make ~chunks_per_npu:2 ~pattern ~npus:9 () in
      same (Pattern.name pattern) (Router.synthesize ~seed:3 topo s)
        (Router.synthesize_any ~seed:3 ~trials:2 topo s))
    [ Pattern.All_to_all; Pattern.Gather 4; Pattern.Scatter 0 ];
  let ag = Spec.make ~pattern:Pattern.All_gather ~npus:9 () in
  same "All-Gather" (Synth.synthesize ~seed:3 ~trials:2 topo ag)
    (Router.synthesize_any ~seed:3 ~trials:2 topo ag);
  let expired = Tacos_util.Deadline.after_ms (-1.) in
  (match Router.synthesize_any ~deadline:expired topo (spec 9) with
  | exception Synth.Deadline_exceeded -> ()
  | _ -> Alcotest.fail "an expired deadline refuses a routed pattern");
  match Router.synthesize_any ~sketch:Synth.no_constraints topo (spec 9) with
  | exception Synth.Unsupported _ -> ()
  | _ -> Alcotest.fail "a sketch does not apply to a routed pattern"

(* --- Calendar ------------------------------------------------------------ *)

module Calendar = Tacos.Router.Calendar

let test_calendar_empty () =
  let c = Calendar.create () in
  Alcotest.check time "free from ready" 3. (Calendar.earliest_free c ~ready:3. ~dur:5.)

let test_calendar_gap_fit () =
  let c = Calendar.create () in
  Calendar.reserve c ~start:0. ~dur:2.;
  Calendar.reserve c ~start:5. ~dur:2.;
  Alcotest.check time "fits the gap" 2. (Calendar.earliest_free c ~ready:0. ~dur:3.);
  Alcotest.check time "too long for the gap, goes after" 7.
    (Calendar.earliest_free c ~ready:0. ~dur:4.);
  Alcotest.check time "ready inside a busy interval" 2.
    (Calendar.earliest_free c ~ready:1. ~dur:1.)

let test_calendar_scaled_eps () =
  (* Regression: with a fixed 1e-15 slack, a O(1e9)-magnitude fit check
     failed on representation error alone (1 ulp of 1e9 is ~1.2e-7), so
     jobs that exactly abutted a reservation were pushed behind it. The
     tolerance must scale with the magnitudes compared. *)
  let c = Calendar.create () in
  Calendar.reserve c ~start:1e9 ~dur:10.;
  (* Filling the [0, 1e9) gap exactly: a few ulps of slop must not spill
     the job past the reservation. *)
  let dur = 1e9 *. (1. +. 2. *. epsilon_float) in
  Alcotest.check time "abutting fit at large magnitude" 0.
    (Calendar.earliest_free c ~ready:0. ~dur)

let test_calendar_reserve_overlap () =
  let c = Calendar.create () in
  Calendar.reserve c ~start:0. ~dur:10.;
  Alcotest.(check bool) "overlap raises" true
    (match Calendar.reserve c ~start:5. ~dur:10. with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_calendar_adjacent_ok () =
  let c = Calendar.create () in
  Calendar.reserve c ~start:0. ~dur:10.;
  Calendar.reserve c ~start:10. ~dur:5.;
  Calendar.reserve c ~start:20. ~dur:1.;
  Alcotest.check time "free after the packed prefix" 15.
    (Calendar.earliest_free c ~ready:0. ~dur:5.)

let prop_always_valid =
  QCheck.Test.make ~name:"All-to-All schedules always validate" ~count:25
    QCheck.(make Gen.(pair (int_range 2 3) (int_range 2 3)))
    (fun (a, b) ->
      let topo = Builders.torus ~link:unit_link [| a; b |] in
      let s = spec (a * b) in
      let r = Router.synthesize ~seed:(a + (10 * b)) topo s in
      Schedule.validate topo s r.Synth.schedule = Ok ())

let () =
  Alcotest.run "alltoall"
    [
      ( "calendar",
        [
          Alcotest.test_case "empty calendar is free" `Quick test_calendar_empty;
          Alcotest.test_case "fits into gaps" `Quick test_calendar_gap_fit;
          Alcotest.test_case "large-magnitude tolerance" `Quick
            test_calendar_scaled_eps;
          Alcotest.test_case "reserve rejects overlap" `Quick
            test_calendar_reserve_overlap;
          Alcotest.test_case "adjacent reservations ok" `Quick
            test_calendar_adjacent_ok;
        ] );
      ( "alltoall",
        [
          Alcotest.test_case "spec conditions" `Quick test_spec_conditions;
          Alcotest.test_case "FC is one-shot" `Quick test_fc_one_shot;
          Alcotest.test_case "ring bisection bound" `Quick test_ring_serializes;
          Alcotest.test_case "mesh with chunks" `Quick test_mesh_validates_with_chunks;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "matching loop defers" `Quick test_matching_loop_rejects_a2a;
          Alcotest.test_case "competitive with Direct" `Quick
            test_beats_or_matches_direct_on_mesh;
        ] );
      ( "gather-scatter",
        [
          Alcotest.test_case "gather to root" `Quick test_gather_to_root;
          Alcotest.test_case "scatter from root" `Quick test_scatter_from_root;
          Alcotest.test_case "gather/scatter cost regime" `Quick
            test_gather_scatter_same_cost_regime;
          Alcotest.test_case "rejects matching patterns" `Quick
            test_router_rejects_matching_patterns;
          Alcotest.test_case "synthesize_any dispatch" `Quick test_synthesize_any_dispatch;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_always_valid ]);
    ]
