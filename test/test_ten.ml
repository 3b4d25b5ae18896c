(* Tests for the explicit time-expanded network. *)

open Tacos_topology
open Tacos_collective
open Tacos_ten

let feq = Alcotest.float 1e-9
let unit_link = Link.make ~alpha:1. ~beta:0.
let ring3 () = Builders.ring ~link:unit_link ~bidirectional:false 3

let test_create_and_expand () =
  let topo = ring3 () in
  let ten = Ten.create topo ~span_cost:1. in
  Alcotest.(check int) "starts empty" 0 (Ten.spans ten);
  Ten.expand ten;
  Ten.expand ten;
  Alcotest.(check int) "two spans" 2 (Ten.spans ten)

let test_match_and_occupancy () =
  let topo = ring3 () in
  let ten = Ten.create ~spans:1 topo ~span_cost:1. in
  Alcotest.(check (option int)) "initially free" None (Ten.occupant ten ~span:0 ~edge:0);
  Ten.match_chunk ten ~span:0 ~edge:0 ~chunk:2;
  Alcotest.(check (option int)) "occupied" (Some 2) (Ten.occupant ten ~span:0 ~edge:0)

let test_double_match_rejected () =
  (* The one-chunk-per-TEN-link invariant (§IV-B) is enforced structurally. *)
  let topo = ring3 () in
  let ten = Ten.create ~spans:1 topo ~span_cost:1. in
  Ten.match_chunk ten ~span:0 ~edge:0 ~chunk:0;
  Alcotest.check_raises "double booking"
    (Invalid_argument "Ten.match_chunk: edge already occupied in this span")
    (fun () -> Ten.match_chunk ten ~span:0 ~edge:0 ~chunk:1)

let test_out_of_range_span () =
  let topo = ring3 () in
  let ten = Ten.create ~spans:1 topo ~span_cost:1. in
  Alcotest.check_raises "span out of range" (Invalid_argument "Ten: span out of range")
    (fun () -> ignore (Ten.occupant ten ~span:1 ~edge:0))

let test_utilization () =
  let topo = ring3 () in
  let ten = Ten.create ~spans:1 topo ~span_cost:1. in
  Ten.match_chunk ten ~span:0 ~edge:0 ~chunk:0;
  Alcotest.check feq "one of three" (1. /. 3.) (Ten.utilization ten ~span:0)

let fig7_schedule topo =
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  Schedule.make
    [
      { Schedule.chunk = 0; edge = link 0 1; src = 0; dst = 1; start = 0.; finish = 1. };
      { Schedule.chunk = 1; edge = link 1 2; src = 1; dst = 2; start = 0.; finish = 1. };
      { Schedule.chunk = 2; edge = link 2 0; src = 2; dst = 0; start = 0.; finish = 1. };
      { Schedule.chunk = 0; edge = link 1 2; src = 1; dst = 2; start = 1.; finish = 2. };
      { Schedule.chunk = 1; edge = link 2 0; src = 2; dst = 0; start = 1.; finish = 2. };
      { Schedule.chunk = 2; edge = link 0 1; src = 0; dst = 1; start = 1.; finish = 2. };
    ]

let test_schedule_roundtrip () =
  let topo = ring3 () in
  let sched = fig7_schedule topo in
  let ten = Ten.of_schedule topo ~span_cost:1. sched in
  Alcotest.(check int) "two spans" 2 (Ten.spans ten);
  Alcotest.check feq "fully utilized" 1. (Ten.utilization ten ~span:0);
  let back = Ten.to_schedule ten in
  Alcotest.check feq "same makespan" sched.Schedule.makespan back.Schedule.makespan;
  Alcotest.(check int) "same sends" (Schedule.num_sends sched) (Schedule.num_sends back);
  (* The round-tripped schedule is still a valid All-Gather. *)
  let spec = Spec.make ~pattern:Pattern.All_gather ~npus:3 () in
  match Schedule.validate topo spec back with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-trip broke the schedule: %s" e

let test_of_schedule_rejects_misaligned () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 0 1; src = 0; dst = 1; start = 0.5; finish = 1.5 };
      ]
  in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Ten.of_schedule: send not aligned with the span grid")
    (fun () -> ignore (Ten.of_schedule topo ~span_cost:1. sched))

let test_render_contains_grid () =
  let topo = ring3 () in
  let ten = Ten.of_schedule topo ~span_cost:1. (fig7_schedule topo) in
  let s = Ten.render ten in
  Alcotest.(check bool) "mentions spans" true
    (let re_found = ref false in
     String.iteri
       (fun i c ->
         if c = 't' && i + 2 < String.length s && s.[i + 1] = '=' then re_found := true)
       s;
     !re_found);
  Alcotest.(check bool) "has link rows" true (String.length s > 50)

let () =
  Alcotest.run "ten"
    [
      ( "structure",
        [
          Alcotest.test_case "create and expand" `Quick test_create_and_expand;
          Alcotest.test_case "match and occupancy" `Quick test_match_and_occupancy;
          Alcotest.test_case "double match rejected" `Quick test_double_match_rejected;
          Alcotest.test_case "out of range span" `Quick test_out_of_range_span;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ] );
      ( "schedule bridge",
        [
          Alcotest.test_case "round trip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "rejects misaligned sends" `Quick
            test_of_schedule_rejects_misaligned;
          Alcotest.test_case "render" `Quick test_render_contains_grid;
        ] );
    ]
