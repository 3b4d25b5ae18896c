(* Tests for communication sketches (Tacos_sketch): the JSON codec, every
   typed rejection of [Sketch.compile] — crucially that a sketch which
   disconnects the collective surfaces as the *typed* [Infeasible] before
   synthesis, not as the synthesizer's late [Stuck] — the schedule-level
   guarantees (a forbidden link never appears in the synthesized schedule,
   a pinned chunk never leaves its route), the buddy expansion, the Pareto
   strategy sweep, and a QCheck property that any satisfiable random sketch
   yields a schedule that verifies and is sketch-compliant. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Sketch = Tacos_sketch.Sketch
module Strategy = Tacos_sketch.Strategy

let link = Link.make ~alpha:1e-6 ~beta:(1. /. 50e9)

let spec ?(chunks = 1) ?(size = 1e6) pattern npus =
  Spec.make ~chunks_per_npu:chunks ~buffer_size:size ~pattern ~npus ()

let has_substring sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The offender a sketch is rejected with, as a checkable string. *)
let check_fails topo sp sk expect =
  match Sketch.check topo sp sk with
  | Ok _ -> Alcotest.failf "sketch accepted, expected %s" expect
  | Error off ->
    let msg = Sketch.offender_to_string off in
    Alcotest.(check bool)
      (Printf.sprintf "offender mentions %S (got %S)" expect msg)
      true (has_substring expect msg);
    off

(* --- codec --------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let sk =
    Sketch.make ~name:"all-rules"
      [
        Sketch.Forbid_link 3;
        Sketch.Prefer_link { link = 5; weight = 4. };
        Sketch.Pin_path { chunk = 0; route = [ 1; 2 ] };
        Sketch.Buddy { dim = 1 };
      ]
  in
  (match Sketch.of_json (Sketch.to_json sk) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok sk' -> Alcotest.(check bool) "round-trips structurally" true (sk = sk'));
  (* Digest: stable under round-trip, sensitive to any rule change. *)
  (match Sketch.of_json (Sketch.to_json sk) with
  | Ok sk' ->
    Alcotest.(check string) "digest stable" (Sketch.digest sk) (Sketch.digest sk')
  | Error _ -> assert false);
  let sk2 = Sketch.make ~name:"all-rules" [ Sketch.Forbid_link 4 ] in
  Alcotest.(check bool)
    "digest distinguishes rules" true
    (Sketch.digest sk <> Sketch.digest sk2)

let test_codec_rejects () =
  let bad text expect =
    match Sketch.of_json text with
    | Ok _ -> Alcotest.failf "%s should not parse" text
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" text expect e)
        true (has_substring expect e)
  in
  bad "[]" "expected a JSON object";
  bad {|{"name":"x"}|} {|missing "rules"|};
  bad {|{"rules":7}|} {|"rules" must be a list|};
  bad {|{"rules":[7]}|} "each rule must be a JSON object";
  bad {|{"rules":[{"prefer":5}]}|} {|missing "weight"|};
  bad {|{"rules":[{"pin":{"chunk":0}}]}|} {|"chunk" and "route"|};
  bad {|{"rules":[{"buddy":{}}]}|} {|"dim"|};
  bad {|{"rules":[{}]}|} "exactly one";
  bad {|{"rules":[{"forbid":1,"prefer":2,"weight":1}]}|} "mixes several"

(* --- typed rejections ---------------------------------------------------- *)

let test_rejects_unknown_link () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_gather 4 in
  (match
     check_fails topo sp (Sketch.make [ Sketch.Forbid_link 99 ]) "link 99"
   with
  | Sketch.Unknown_link { link = 99; _ } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off));
  ignore
    (check_fails topo sp
       (Sketch.make [ Sketch.Prefer_link { link = -1; weight = 2. } ])
       "link -1");
  ignore
    (check_fails topo sp
       (Sketch.make [ Sketch.Pin_path { chunk = 0; route = [ 0; 99 ] } ])
       "link 99")

let test_rejects_bad_weight () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_gather 4 in
  List.iter
    (fun w ->
      match
        Sketch.check topo sp
          (Sketch.make [ Sketch.Prefer_link { link = 0; weight = w } ])
      with
      | Error (Sketch.Bad_weight { link = 0; _ }) -> ()
      | Error off ->
        Alcotest.failf "weight %g: wrong offender %s" w
          (Sketch.offender_to_string off)
      | Ok _ -> Alcotest.failf "weight %g accepted" w)
    [ 0.; -2.; Float.nan; Float.infinity ]

let test_rejects_bad_pins () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_gather 4 in
  (match
     check_fails topo sp
       (Sketch.make [ Sketch.Pin_path { chunk = 9; route = [ 0 ] } ])
       "chunk 9"
   with
  | Sketch.Unknown_chunk { chunk = 9; num_chunks = 4 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off));
  (match
     check_fails topo sp
       (Sketch.make [ Sketch.Pin_path { chunk = 1; route = [] } ])
       "chunk 1"
   with
  | Sketch.Empty_route { chunk = 1 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off));
  (* Two pins on one chunk intersect; disjoint routes leave it nothing. *)
  match
    check_fails topo sp
      (Sketch.make
         [
           Sketch.Pin_path { chunk = 1; route = [ 0; 1 ] };
           Sketch.Pin_path { chunk = 1; route = [ 2; 3 ] };
         ])
      "chunk 1"
  with
  | Sketch.Empty_route { chunk = 1 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off)

let test_rejects_forbid_pin_conflict () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_gather 4 in
  match
    check_fails topo sp
      (Sketch.make
         [
           Sketch.Forbid_link 2;
           Sketch.Pin_path { chunk = 0; route = [ 1; 2 ] };
         ])
      "forbidden but also part"
  with
  | Sketch.Forbid_pin_conflict { chunk = 0; link = 2 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off)

let test_rejects_buddy_without_hierarchy () =
  (* A hand-built topology carries no hierarchy metadata at all. *)
  let topo = Topology.create 4 in
  for i = 0 to 3 do
    Topology.add_bidir topo i ((i + 1) mod 4) link
  done;
  let sp = spec Pattern.All_gather 4 in
  (match
     check_fails topo sp (Sketch.make [ Sketch.Buddy { dim = 0 } ]) "buddy"
   with
  | Sketch.No_hierarchy { dim = 0 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off));
  (* A hierarchy exists but has no dimension 5. *)
  let torus = Builders.torus ~link [| 2; 2 |] in
  match
    check_fails torus (spec Pattern.All_gather 4)
      (Sketch.make [ Sketch.Buddy { dim = 5 } ])
      "buddy"
  with
  | Sketch.No_hierarchy { dim = 5 } -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off)

let test_rejects_routed_pattern () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_to_all 4 in
  match
    check_fails topo sp (Sketch.make [ Sketch.Forbid_link 0 ]) "router"
  with
  | Sketch.Unsupported_pattern _ -> ()
  | off -> Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off)

(* The headline acceptance test: a forbid that disconnects a postcondition
   raises the *typed* [Infeasible], before synthesis — never [Stuck]. *)
let test_disconnection_is_typed_infeasible () =
  let topo = Builders.ring ~link ~bidirectional:false 4 in
  let sp = spec Pattern.All_gather 4 in
  let sk = Sketch.make [ Sketch.Forbid_link 0 ] in
  (match Sketch.check topo sp sk with
  | Error (Sketch.Disconnected _) -> ()
  | Error off ->
    Alcotest.failf "wrong offender: %s" (Sketch.offender_to_string off)
  | Ok _ -> Alcotest.fail "disconnecting sketch accepted");
  (match Sketch.compile topo sp sk with
  | exception Sketch.Infeasible (Sketch.Disconnected _) -> ()
  | exception Synth.Stuck _ ->
    Alcotest.fail "disconnection surfaced as Stuck, not Infeasible"
  | _ -> Alcotest.fail "compile succeeded on a disconnecting sketch");
  (* Reduction patterns check reachability on the reversed adjacency;
     All-Reduce must hold in both phases. On the unidirectional ring
     0->1->2->3->0 forbidding link 0 (edge 0->1) disconnects every
     all-to-all-style postcondition and — on the reversed adjacency — the
     Reduce to root 1; Broadcast from root 1 instead loses NPU 2 when its
     only incoming hop (edge 1->2, link 1) is forbidden. *)
  List.iter
    (fun (pattern, forbid) ->
      match
        Sketch.check topo (spec pattern 4) (Sketch.make [ Sketch.Forbid_link forbid ])
      with
      | Error (Sketch.Disconnected _) -> ()
      | Error off ->
        Alcotest.failf "%s: wrong offender %s" (Pattern.name pattern)
          (Sketch.offender_to_string off)
      | Ok _ -> Alcotest.failf "%s: disconnecting sketch accepted" (Pattern.name pattern))
    [
      (Pattern.Reduce_scatter, 0);
      (Pattern.All_reduce, 0);
      (Pattern.Broadcast 1, 1);
      (Pattern.Reduce 1, 0);
    ]

(* --- schedule-level guarantees ------------------------------------------- *)

let forbidden_sends forbidden (sched : Schedule.t) =
  List.filter (fun (s : Schedule.send) -> List.mem s.Schedule.edge forbidden)
    (Schedule.sends sched)

let test_forbid_excluded_from_schedule () =
  (* Bidirectional ring: forbidding one direction of one hop keeps the
     collective feasible, and the synthesized schedule must provably never
     touch the forbidden link. *)
  let topo = Builders.ring ~link 8 in
  let forbid = [ 3 ] in
  let sk = Sketch.make [ Sketch.Forbid_link 3 ] in
  List.iter
    (fun pattern ->
      let sp = spec ~chunks:2 pattern 8 in
      let c = Sketch.compile topo sp sk in
      let r = Synth.synthesize ~sketch:c topo sp in
      (match Synth.verify topo r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid schedule: %s" (Pattern.name pattern) e);
      Alcotest.(check int)
        (Pattern.name pattern ^ ": sends on the forbidden link")
        0
        (List.length (forbidden_sends forbid r.Synth.schedule));
      match Sketch.compliant topo sp sk r.Synth.schedule with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: not compliant: %s" (Pattern.name pattern) e)
    (* All-Reduce exercises both mirrored phases under the same link ids. *)
    [ Pattern.All_gather; Pattern.Reduce_scatter; Pattern.All_reduce ]

let test_empty_sketch_is_identity () =
  let topo = Builders.ring ~link 6 in
  let sp = spec ~chunks:2 Pattern.All_gather 6 in
  let plain = Synth.synthesize topo sp in
  let c = Sketch.compile topo sp Sketch.empty in
  Alcotest.(check bool) "compiles to no_constraints" true (c = Synth.no_constraints);
  let sketched = Synth.synthesize ~sketch:c topo sp in
  Alcotest.(check bool)
    "bit-identical schedule" true
    (plain.Synth.schedule = sketched.Synth.schedule)

let test_pin_restricts_route () =
  let topo = Builders.ring ~link 4 in
  let sp = spec Pattern.All_gather 4 in
  (* Chunk 0 starts at NPU 0; pin it to the clockwise hops 0->1->2->3. *)
  let hop src dst =
    match Topology.find_links topo ~src ~dst with
    | e :: _ -> e.Topology.id
    | [] -> Alcotest.failf "no link %d->%d" src dst
  in
  let route = [ hop 0 1; hop 1 2; hop 2 3 ] in
  let sk = Sketch.make [ Sketch.Pin_path { chunk = 0; route } ] in
  let c = Sketch.compile topo sp sk in
  let r = Synth.synthesize ~sketch:c topo sp in
  (match Synth.verify topo r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e);
  List.iter
    (fun (s : Schedule.send) ->
      if s.Schedule.chunk = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "chunk 0 send on link %d is on the route" s.Schedule.edge)
          true
          (List.mem s.Schedule.edge route))
    (Schedule.sends r.Synth.schedule);
  match Sketch.compliant topo sp sk r.Synth.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "not compliant: %s" e

let test_buddy_forbids_diagonals () =
  (* A 2x2 hierarchy with explicit diagonal links: buddies along dim 1 are
     the same-rank pairs (0,2) and (1,3); the diagonals 0<->3 and 1<->2
     cross both coordinates and must be forbidden by [Buddy {dim = 1}]. *)
  let topo = Topology.create ~name:"buddy-2x2" 4 in
  Topology.add_bidir topo 0 1 link;
  Topology.add_bidir topo 2 3 link;
  Topology.add_bidir topo 0 2 link;
  Topology.add_bidir topo 1 3 link;
  Topology.add_bidir topo 0 3 link;
  Topology.add_bidir topo 1 2 link;
  Topology.set_hierarchy topo
    [|
      { Topology.kind = Topology.Fully_connected_dim; size = 2; link };
      { Topology.kind = Topology.Fully_connected_dim; size = 2; link };
    |];
  let diagonal (e : Topology.edge) =
    let a = Topology.coords topo e.Topology.src
    and b = Topology.coords topo e.Topology.dst in
    a.(0) <> b.(0) && a.(1) <> b.(1)
  in
  let diagonals =
    List.filter_map
      (fun e -> if diagonal e then Some e.Topology.id else None)
      (Topology.edges topo)
  in
  Alcotest.(check int) "four diagonal links" 4 (List.length diagonals);
  let sp = spec Pattern.All_gather 4 in
  let sk = Sketch.make [ Sketch.Buddy { dim = 1 } ] in
  let c = Sketch.compile topo sp sk in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "diagonal %d forbidden" id)
        true
        (List.mem id c.Synth.forbid))
    diagonals;
  let r = Synth.synthesize ~sketch:c topo sp in
  Alcotest.(check int) "no diagonal sends" 0
    (List.length (forbidden_sends diagonals r.Synth.schedule));
  match Sketch.compliant topo sp sk r.Synth.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "not compliant: %s" e

(* --- strategy sweeps ----------------------------------------------------- *)

let test_pareto_dgx1_frontier () =
  (* The acceptance bar: DGX-1 All-Reduce at 64 MB yields a non-dominated
     frontier of at least 3 points, deterministically. *)
  let topo = Builders.dgx1 () in
  let outcome =
    Strategy.sweep ~seed:42 topo ~pattern:Pattern.All_reduce ~size:64e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "frontier has >= 3 points (got %d)"
       (List.length outcome.Strategy.frontier))
    true
    (List.length outcome.Strategy.frontier >= 3);
  (* Every point is on the frontier xor dominated, and the dominator
     relation is sound. *)
  List.iter
    (fun (p : Strategy.point) ->
      let on_frontier = List.memq p outcome.Strategy.frontier in
      let dominated =
        List.exists (fun (q, _) -> q == p) outcome.Strategy.dominated
      in
      Alcotest.(check bool)
        (Printf.sprintf "chunks=%d frontier xor dominated" p.Strategy.chunks_per_npu)
        true
        (on_frontier <> dominated))
    outcome.Strategy.points;
  List.iter
    (fun ((p : Strategy.point), (by : Strategy.point)) ->
      Alcotest.(check bool)
        (Printf.sprintf "chunks=%d is dominated by chunks=%d"
           p.Strategy.chunks_per_npu by.Strategy.chunks_per_npu)
        true
        (Strategy.dominates by p))
    outcome.Strategy.dominated;
  (* Determinism over the fields dominance is computed from. *)
  let again =
    Strategy.sweep ~seed:42 topo ~pattern:Pattern.All_reduce ~size:64e6
  in
  let det (p : Strategy.point) =
    (p.Strategy.chunks_per_npu, p.Strategy.steps, p.Strategy.sends,
     p.Strategy.simulated_time)
  in
  Alcotest.(check bool)
    "deterministic points" true
    (List.map det outcome.Strategy.points = List.map det again.Strategy.points);
  Alcotest.(check int)
    "deterministic frontier size"
    (List.length outcome.Strategy.frontier)
    (List.length again.Strategy.frontier)

let test_pareto_under_sketch () =
  let topo = Builders.ring ~link 8 in
  let sk = Sketch.make [ Sketch.Forbid_link 3 ] in
  let outcome =
    Strategy.sweep ~candidates:[ 1; 2 ] ~sketch:sk topo
      ~pattern:Pattern.All_gather ~size:1e6
  in
  Alcotest.(check int) "both candidates evaluated" 2
    (List.length outcome.Strategy.points);
  (* An infeasible sketch propagates as the typed exception. *)
  let uni = Builders.ring ~link ~bidirectional:false 4 in
  match
    Strategy.sweep ~candidates:[ 1 ] ~sketch:sk uni
      ~pattern:Pattern.All_gather ~size:1e6
  with
  | _ -> Alcotest.fail "infeasible sketch did not raise"
  | exception Sketch.Infeasible (Sketch.Disconnected _) -> ()

(* --- property: satisfiable sketches synthesize compliant schedules ------- *)

let sketch_gen num_links num_chunks =
  let open QCheck.Gen in
  let rule =
    frequency
      [
        (3, map (fun l -> Sketch.Forbid_link l) (int_bound (num_links - 1)));
        ( 3,
          map2
            (fun l w -> Sketch.Prefer_link { link = l; weight = 0.5 +. w })
            (int_bound (num_links - 1))
            (float_bound_inclusive 4.) );
        ( 1,
          map2
            (fun chunk route -> Sketch.Pin_path { chunk; route })
            (int_bound (num_chunks - 1))
            (list_size (int_range 1 num_links) (int_bound (num_links - 1))) );
      ]
  in
  map Sketch.make (list_size (int_range 0 4) rule)

let print_sketch sk = Sketch.to_json sk

let prop_satisfiable_sketch_compliant pattern =
  let topo = Builders.ring ~link 6 in
  let sp = spec pattern 6 in
  let arb =
    QCheck.make ~print:print_sketch
      (sketch_gen (Topology.num_links topo) (Spec.num_chunks sp))
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "satisfiable sketch -> compliant %s" (Pattern.name pattern))
    ~count:30 arb
    (fun sk ->
      match Sketch.check topo sp sk with
      | Error _ -> true (* unsatisfiable sketches are rejected up front *)
      | Ok c -> (
        match Synth.synthesize ~sketch:c topo sp with
        | exception Synth.Stuck msg ->
          QCheck.Test.fail_reportf
            "accepted sketch got the synthesizer stuck: %s" msg
        | r ->
          (match Synth.verify topo r with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "schedule invalid: %s" e);
          (match Sketch.compliant topo sp sk r.Synth.schedule with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "schedule not compliant: %s" e);
          true))

let () =
  Alcotest.run "sketch"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects malformed JSON" `Quick test_codec_rejects;
        ] );
      ( "validation",
        [
          Alcotest.test_case "unknown link" `Quick test_rejects_unknown_link;
          Alcotest.test_case "bad weight" `Quick test_rejects_bad_weight;
          Alcotest.test_case "bad pins" `Quick test_rejects_bad_pins;
          Alcotest.test_case "forbid+pin conflict" `Quick
            test_rejects_forbid_pin_conflict;
          Alcotest.test_case "buddy needs hierarchy" `Quick
            test_rejects_buddy_without_hierarchy;
          Alcotest.test_case "routed patterns" `Quick test_rejects_routed_pattern;
          Alcotest.test_case "disconnection is typed Infeasible" `Quick
            test_disconnection_is_typed_infeasible;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "forbidden link excluded" `Quick
            test_forbid_excluded_from_schedule;
          Alcotest.test_case "empty sketch is identity" `Quick
            test_empty_sketch_is_identity;
          Alcotest.test_case "pin restricts route" `Quick test_pin_restricts_route;
          Alcotest.test_case "buddy forbids diagonals" `Quick
            test_buddy_forbids_diagonals;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "dgx1 frontier" `Quick test_pareto_dgx1_frontier;
          Alcotest.test_case "sweep under a sketch" `Quick test_pareto_under_sketch;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_satisfiable_sketch_compliant Pattern.All_gather;
            prop_satisfiable_sketch_compliant Pattern.All_reduce;
          ] );
    ]
