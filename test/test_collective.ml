(* Tests for the collective layer: pattern algebra, spec pre/postconditions,
   the schedule IR (reversal, concatenation, validation), and ideal bounds. *)

open Tacos_topology
open Tacos_collective

let feq = Alcotest.float 1e-9
let unit_link = Link.make ~alpha:1. ~beta:0.

let spec ?(chunks_per_npu = 1) ?(buffer_size = 1.) pattern npus =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus ()

(* --- Pattern -------------------------------------------------------------- *)

let test_pattern_counterparts () =
  Alcotest.(check bool) "RS ~ AG" true
    (Pattern.counterpart Pattern.Reduce_scatter = Some Pattern.All_gather);
  Alcotest.(check bool) "Reduce ~ Broadcast" true
    (Pattern.counterpart (Pattern.Reduce 2) = Some (Pattern.Broadcast 2));
  Alcotest.(check bool) "All-Reduce has none" true
    (Pattern.counterpart Pattern.All_reduce = None)

let test_pattern_combining () =
  Alcotest.(check bool) "RS combines" true (Pattern.is_combining Pattern.Reduce_scatter);
  Alcotest.(check bool) "AG does not" false (Pattern.is_combining Pattern.All_gather);
  Alcotest.(check bool) "All-Reduce is composite" false
    (Pattern.is_combining Pattern.All_reduce)

(* --- Spec ----------------------------------------------------------------- *)

let test_spec_chunk_accounting () =
  let s = spec ~chunks_per_npu:4 ~buffer_size:64e6 Pattern.All_gather 8 in
  Alcotest.(check int) "chunks" 32 (Spec.num_chunks s);
  Alcotest.check feq "chunk size" 2e6 (Spec.chunk_size s);
  Alcotest.(check int) "owner of chunk 13" 3 (Spec.owner s 13)

let test_spec_broadcast_chunks () =
  let s = spec ~chunks_per_npu:5 (Pattern.Broadcast 2) 8 in
  Alcotest.(check int) "root buffer chunks" 5 (Spec.num_chunks s);
  Alcotest.(check int) "owner is root" 2 (Spec.owner s 3)

let test_spec_ag_conditions () =
  let s = spec Pattern.All_gather 3 in
  Alcotest.(check int) "precondition: one chunk per NPU" 3
    (List.length (Spec.precondition s));
  Alcotest.(check int) "postcondition: everything everywhere" 9
    (List.length (Spec.postcondition s));
  Alcotest.(check bool) "anchored" true (List.mem (1, 1) (Spec.precondition s))

let test_spec_rs_conditions () =
  let s = spec Pattern.Reduce_scatter 3 in
  Alcotest.(check int) "precondition: partials everywhere" 9
    (List.length (Spec.precondition s));
  Alcotest.(check int) "postcondition: one chunk per NPU" 3
    (List.length (Spec.postcondition s))

let test_spec_reverse () =
  let s = spec Pattern.Reduce_scatter 4 in
  let r = Spec.reverse s in
  Alcotest.(check bool) "RS reverses to AG" true (r.Spec.pattern = Pattern.All_gather);
  Alcotest.check_raises "All-Reduce cannot reverse"
    (Invalid_argument "Spec.reverse: All-Reduce is composite; reverse its phases")
    (fun () -> ignore (Spec.reverse (spec Pattern.All_reduce 4)))

let test_spec_rejects_bad_root () =
  Alcotest.check_raises "root out of range" (Invalid_argument "Spec.make: root out of range")
    (fun () -> ignore (spec (Pattern.Broadcast 9) 4))

let test_spec_rejects_non_finite_size () =
  List.iter
    (fun buffer_size ->
      Alcotest.check_raises (Printf.sprintf "buffer %g" buffer_size)
        (Invalid_argument "Spec.make: buffer_size must be positive and finite")
        (fun () -> ignore (Spec.make ~buffer_size ~pattern:Pattern.All_gather ~npus:4 ())))
    [ infinity; Float.nan ]

(* --- Schedule: construction and transforms -------------------------------- *)

let ring3 () = Builders.ring ~link:unit_link ~bidirectional:false 3

(* The unidirectional ring All-Gather of Fig. 7, written out by hand. *)
let ring3_ag_schedule topo =
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

let test_schedule_makespan () =
  let topo = ring3 () in
  let s = ring3_ag_schedule topo in
  Alcotest.check feq "makespan" 2. s.Schedule.makespan;
  Alcotest.(check int) "sends" 6 (Schedule.num_sends s)

let test_schedule_validates_ring_ag () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  match Schedule.validate topo (spec Pattern.All_gather 3) sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hand-written Fig. 7 schedule rejected: %s" e

let test_schedule_shift_and_concat () =
  let topo = ring3 () in
  let s = ring3_ag_schedule topo in
  let shifted = Schedule.shift s 5. in
  Alcotest.check feq "shifted makespan" 7. shifted.Schedule.makespan;
  let doubled = Schedule.concat s s in
  Alcotest.check feq "concat makespan" 4. doubled.Schedule.makespan;
  Alcotest.(check int) "concat sends" 12 (Schedule.num_sends doubled)

let test_schedule_reverse_roundtrip () =
  let topo = ring3 () in
  let s = ring3_ag_schedule topo in
  let rr = Schedule.reverse (Schedule.reverse s) in
  Alcotest.check feq "double reversal preserves makespan" s.Schedule.makespan
    rr.Schedule.makespan;
  Alcotest.(check int) "same sends" (Schedule.num_sends s) (Schedule.num_sends rr)

let test_reversed_ag_is_valid_rs () =
  (* §IV-E: reversing an All-Gather synthesized on the reversed topology
     yields a valid Reduce-Scatter on the original one. On a symmetric unit
     ring the reversed topology is itself a unit ring, so the hand schedule
     (built on the reversed graph) reverses into a valid RS. *)
  let topo = ring3 () in
  let rev_topo = Topology.reverse topo in
  let ag_on_rev =
    (* Fig. 7's pattern laid on the reversed ring: links are 1->0, 2->1, 0->2. *)
    let link s d = (List.hd (Topology.find_links rev_topo ~src:s ~dst:d)).Topology.id in
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 0 2; src = 0; dst = 2; start = 0.; finish = 1. };
        { Schedule.chunk = 1; edge = link 1 0; src = 1; dst = 0; start = 0.; finish = 1. };
        { Schedule.chunk = 2; edge = link 2 1; src = 2; dst = 1; start = 0.; finish = 1. };
        { Schedule.chunk = 0; edge = link 2 1; src = 2; dst = 1; start = 1.; finish = 2. };
        { Schedule.chunk = 1; edge = link 0 2; src = 0; dst = 2; start = 1.; finish = 2. };
        { Schedule.chunk = 2; edge = link 1 0; src = 1; dst = 0; start = 1.; finish = 2. };
      ]
  in
  let rs = Schedule.reverse ag_on_rev in
  match Schedule.validate topo (spec Pattern.Reduce_scatter 3) rs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reversed AG is not a valid RS: %s" e

(* --- Schedule: validator catches violations -------------------------------- *)

let expect_invalid name topo spec_ sched =
  match Schedule.validate topo spec_ sched with
  | Ok () -> Alcotest.failf "%s: validator accepted a broken schedule" name
  | Error _ -> ()

let test_validator_rejects_congestion () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  (* Two chunks on link 0->1 during overlapping intervals. *)
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 0 1; src = 0; dst = 1; start = 0.; finish = 1. };
        { Schedule.chunk = 2; edge = link 0 1; src = 0; dst = 1; start = 0.5; finish = 1.5 };
      ]
  in
  expect_invalid "congestion" topo (spec (Pattern.Broadcast 0) 3) sched

let test_validator_rejects_teleportation () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  (* NPU 1 forwards chunk 0 before ever receiving it. *)
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 1 2; src = 1; dst = 2; start = 0.; finish = 1. };
      ]
  in
  expect_invalid "teleportation" topo (spec (Pattern.Broadcast 0) 3) sched

let test_validator_rejects_too_fast_sends () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 0 1; src = 0; dst = 1; start = 0.; finish = 0.25 };
      ]
  in
  expect_invalid "faster than alpha-beta" topo (spec (Pattern.Broadcast 0) 3) sched

let test_validator_rejects_unmet_postcondition () =
  let topo = ring3 () in
  expect_invalid "empty schedule" topo (spec Pattern.All_gather 3) Schedule.empty

let test_validator_rejects_wrong_endpoints () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 1 2; src = 0; dst = 1; start = 0.; finish = 1. };
      ]
  in
  expect_invalid "mismatched link" topo (spec (Pattern.Broadcast 0) 3) sched

(* --- Schedule: analyses ----------------------------------------------------- *)

let test_link_bytes () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let bytes = Schedule.link_bytes topo ~chunk_size:10. sched in
  Array.iter (fun b -> Alcotest.check feq "2 chunks per link" 20. b) bytes

let test_average_utilization_full () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  (* Fig. 7: every link busy in every span. *)
  Alcotest.check feq "100%" 1.0 (Schedule.average_utilization topo sched)

let test_utilization_timeline () =
  let topo = ring3 () in
  let link s d = (List.hd (Topology.find_links topo ~src:s ~dst:d)).Topology.id in
  let sched =
    Schedule.make
      [
        { Schedule.chunk = 0; edge = link 0 1; src = 0; dst = 1; start = 0.; finish = 1. };
        { Schedule.chunk = 0; edge = link 1 2; src = 1; dst = 2; start = 1.; finish = 2. };
      ]
  in
  match Schedule.utilization_timeline topo ~bins:2 sched with
  | [ (_, u1); (_, u2) ] ->
    Alcotest.check feq "one of three links busy" (1. /. 3.) u1;
    Alcotest.check feq "one of three links busy" (1. /. 3.) u2
  | _ -> Alcotest.fail "expected two bins"

let test_chunk_path () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let path = Schedule.chunk_path sched 0 in
  Alcotest.(check (list int)) "chunk 0 walks the ring" [ 1; 2 ]
    (List.map (fun (s : Schedule.send) -> s.Schedule.dst) path)

(* --- Ideal bounds ------------------------------------------------------------ *)

let test_ideal_all_reduce_bidirectional_ring () =
  (* 64-NPU bidirectional ring at 50 GB/s per direction: ingress 100 GB/s. *)
  let topo = Builders.ring ~link:(Link.of_bandwidth 50e9) 64 in
  let size = 1e9 in
  let t = Ideal.all_reduce_time topo ~size in
  let serialization = size *. 2. *. 63. /. 64. /. 100e9 in
  let diameter = 32. *. 0.5e-6 in
  Alcotest.check feq "bound" (serialization +. diameter) t

let test_ideal_ag_half_of_ar () =
  let topo = Builders.ring ~link:(Link.of_bandwidth 50e9) 16 in
  let ar = Ideal.all_reduce_time topo ~size:1e9 in
  let ag = Ideal.all_gather_time topo ~size:1e9 in
  let diameter = Topology.diameter_latency topo in
  Alcotest.check feq "serialization halves" ((ar -. diameter) /. 2.) (ag -. diameter)

let test_ideal_efficiency () =
  Alcotest.check feq "efficiency" 0.5 (Ideal.efficiency ~ideal:1. ~measured:2.);
  Alcotest.check feq "bandwidth" 2e9 (Ideal.bandwidth ~size:1e9 ~time:0.5)

let test_schedule_to_json () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let sp = spec Pattern.All_gather 3 in
  let json = Schedule.to_json ~spec:sp sched in
  List.iter
    (fun fragment ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ fragment) true (contains json fragment))
    [ "\"collective\": \"All-Gather\""; "\"npus\": 3"; "\"makespan_seconds\""; "\"sends\"";
      "\"chunk\": 0" ];
  (* Balanced braces/brackets as a cheap well-formedness check. *)
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_schedule_json_roundtrip () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let sp = spec Pattern.All_gather 3 in
  match Schedule.of_json (Schedule.to_json ~spec:sp sched) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.check feq "same makespan" sched.Schedule.makespan back.Schedule.makespan;
    Alcotest.(check int) "same sends" (Schedule.num_sends sched) (Schedule.num_sends back);
    (match Schedule.validate topo sp back with
    | Ok () -> ()
    | Error e -> Alcotest.failf "round-tripped schedule invalid: %s" e)

let test_of_json_rejects_malformed () =
  List.iter
    (fun bad ->
      match Schedule.of_json bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [ "{}"; "not json"; {|{"sends": [{"chunk": 1}]}|} ]

(* A time that is not finite must not reach the validator: an infinite
   finish makes the makespan, and with it every tolerance, infinite, which
   let twelve zero-length, causality-ignoring sends pass. *)
let test_of_json_rejects_infinite_time () =
  let topo = Builders.ring 4 in
  let sp = spec Pattern.All_gather 4 in
  let link ~src ~dst = (List.hd (Topology.find_links topo ~src ~dst)).Topology.id in
  let send ~chunk ~src ~dst ~finish =
    Printf.sprintf {|{"chunk": %d, "src": %d, "dst": %d, "link": %d, "start": 0, "finish": %s}|}
      chunk src dst (link ~src ~dst) finish
  in
  (* every NPU gets every chunk it lacks from its left neighbour at time 0 *)
  let zero_length =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun c ->
            if c = d then None else Some (send ~chunk:c ~src:((d + 3) mod 4) ~dst:d ~finish:"0"))
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let doc sends = Printf.sprintf {|{"sends": [%s]}|} (String.concat ", " sends) in
  (match Schedule.of_json (doc zero_length) with
  | Error e -> Alcotest.failf "finite sends should parse: %s" e
  | Ok sched ->
    Alcotest.(check int) "twelve sends" 12 (Schedule.num_sends sched);
    Alcotest.(check bool) "rejected by the validator" true
      (Result.is_error (Schedule.validate topo sp sched)));
  (match Schedule.of_json (doc (zero_length @ [ send ~chunk:0 ~src:0 ~dst:1 ~finish:"1e999" ])) with
  | Ok _ -> Alcotest.fail "an infinite finish time was accepted"
  | Error _ -> ());
  List.iter
    (fun (start, finish) ->
      match
        Schedule.make [ { Schedule.chunk = 0; edge = 0; src = 0; dst = 1; start; finish } ]
      with
      | _ -> Alcotest.failf "make accepted [%h, %h]" start finish
      | exception Invalid_argument _ -> ())
    [ (0., infinity); (0., nan); (nan, 1.); (infinity, infinity) ]

(* The All-Gather phase of an All-Reduce is checked on a clock that starts
   at the Reduce-Scatter makespan. Re-reading the times on that clock can
   round two starts into a tie and reverse the order of their sends, and the
   validator must then walk them in the new order: here both sends break
   causality, and the one that ends first on the phase's clock is reported. *)
let test_all_gather_phase_order () =
  let topo = Builders.ring ~link:(Link.make ~alpha:0.5 ~beta:0.) 2 in
  let sp = spec Pattern.All_reduce 2 in
  let send ~chunk ~src ~dst ~start ~finish =
    let edge = (List.hd (Topology.find_links topo ~src ~dst)).Topology.id in
    { Schedule.chunk; edge; src; dst; start; finish }
  in
  let reduce_scatter =
    Schedule.make
      [ send ~chunk:0 ~src:1 ~dst:0 ~start:0. ~finish:0.5;
        send ~chunk:1 ~src:0 ~dst:1 ~start:0. ~finish:0.5 ]
  in
  (* 2^52 + 2 and 2^52 + 3 both round to 2^52 + 2 once 0.5 is taken off *)
  let t = Float.ldexp 1. 52 in
  let all_gather =
    Schedule.make
      [ send ~chunk:1 ~src:0 ~dst:1 ~start:(t +. 2.) ~finish:(t +. 10.);
        send ~chunk:0 ~src:1 ~dst:0 ~start:(t +. 3.) ~finish:(t +. 4.) ]
  in
  match Schedule.validate_all_reduce topo sp ~reduce_scatter ~all_gather with
  | Ok () -> Alcotest.fail "sends of chunks their sources never held were accepted"
  | Error e ->
    Alcotest.(check string) "first failure on the phase's clock"
      (Printf.sprintf "all-gather phase: NPU 1 sends chunk 0 at %g before holding it" (t +. 2.))
      e

let test_lowering_programs () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let programs = Lowering.npu_programs ~npus:3 sched in
  (* Every NPU on the Fig. 7 ring sends twice and receives twice. *)
  Array.iter
    (fun ops ->
      let sends, recvs =
        List.partition (function Lowering.Send _ -> true | Lowering.Recv _ -> false) ops
      in
      Alcotest.(check int) "two sends" 2 (List.length sends);
      Alcotest.(check int) "two recvs" 2 (List.length recvs);
      (* Time-ordered. *)
      let times = List.map Lowering.time_of ops in
      Alcotest.(check bool) "sorted" true (List.sort compare times = times))
    programs

let test_svg_render () =
  let topo = ring3 () in
  let sched = ring3_ag_schedule topo in
  let svg = Svg.render topo sched in
  let contains needle =
    let nh = String.length svg and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub svg i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "svg root" true (contains "<svg");
  Alcotest.(check bool) "closes" true (contains "</svg>");
  (* One background row per link + one rect per send. *)
  let rects = ref 0 in
  String.iteri
    (fun i c -> if c = '<' && i + 5 <= String.length svg && String.sub svg i 5 = "<rect" then incr rects)
    svg;
  Alcotest.(check int) "rects" (3 + 6) !rects

(* --- Parse ------------------------------------------------------------------- *)

let test_parse_sizes () =
  List.iter
    (fun (input, expected) ->
      match Parse.parse_size input with
      | Ok v -> Alcotest.check feq input expected v
      | Error e -> Alcotest.failf "%s rejected: %s" input e)
    [ ("1GB", 1e9); ("64MB", 64e6); ("512KB", 512e3); ("100B", 100.); ("4096", 4096.);
      ("1.5gb", 1.5e9) ];
  List.iter
    (fun bad ->
      match Parse.parse_size bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [ ""; "GB"; "-5MB"; "abc"; "inf"; "1e999B"; "nan" ]

let test_parse_topologies () =
  List.iter
    (fun (input, npus, links) ->
      match Parse.parse_topology input with
      | Ok topo ->
        Alcotest.(check int) (input ^ " npus") npus (Topology.num_npus topo);
        Alcotest.(check int) (input ^ " links") links (Topology.num_links topo)
      | Error e -> Alcotest.failf "%s rejected: %s" input e)
    [
      ("ring:8", 8, 16);
      ("uniring:8", 8, 8);
      ("fc:4", 4, 12);
      ("mesh:3x3", 9, 24);
      ("torus:4x4", 16, 64);
      ("hypercube:3", 8, 24);
      ("switch:8", 8, 8);
      ("dgx1", 8, 48);
      ("dragonfly:4x5", 20, 92);
      ("rfs:2x4x8", 64, 320);
    ];
  List.iter
    (fun bad ->
      match Parse.parse_topology bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [ "nope:4"; "mesh:"; "ring:x"; "rfs:2x4"; "ring:1" ]

(* Zero or negative dimensions are errors that name the dimension, not
   exceptions from the builders. *)
let test_parse_topology_bad_dims () =
  List.iter
    (fun (input, expected) ->
      match Parse.parse_topology input with
      | Ok _ -> Alcotest.failf "%s should be rejected" input
      | Error e -> Alcotest.(check string) input expected e
      | exception e -> Alcotest.failf "%s raised %s" input (Printexc.to_string e))
    [
      ("mesh:0x3", {|dimension 0 in "0x3" must be at least 1|});
      ("mesh:-1x3", {|dimension -1 in "-1x3" must be at least 1|});
      ("torus:4x0x4", {|dimension 0 in "4x0x4" must be at least 1|});
      ("torus:0", {|dimension 0 in "0" must be at least 1|});
      ("rfs:0x1x1", {|dimension 0 in "0x1x1" must be at least 1|});
      ("rfs:1x0x1", {|dimension 0 in "1x0x1" must be at least 1|});
      ("dragonfly:4x0", {|dimension 0 in "4x0" must be at least 1|});
      ("dragonfly:0x2", {|dimension 0 in "0x2" must be at least 1|});
      ("dragonfly:4x1", "dragonfly:4x1 needs at least 3 members per group");
    ];
  List.iter
    (fun input -> Alcotest.(check bool) input true (Result.is_ok (Parse.parse_topology input)))
    [ "mesh:1x1"; "torus:1x4"; "rfs:1x1x1"; "dragonfly:2x1"; "dragonfly:1x1" ]

(* Past 2^20 NPUs or 2^24 links a description is refused before anything
   is built; each builder kind's link count is named in its message. *)
let test_parse_topology_too_large () =
  List.iter
    (fun (input, expected) ->
      match Parse.parse_topology input with
      | Ok _ -> Alcotest.failf "%s should be rejected" input
      | Error e -> Alcotest.(check string) input expected e)
    [
      ("hypercube:40", "hypercube:40: 1099511627776 NPUs, over the bound of 1048576");
      ("hypercube:20", "hypercube:20: 20971520 links, over the bound of 16777216");
      ( "mesh:4611686018427387903x4",
        "mesh:4611686018427387903x4: 4611686018427387903 or more NPUs, over the bound \
         of 1048576" );
      ("fc:4097", "fc:4097: 16781312 links, over the bound of 16777216");
      ("ring:1048577", "ring:1048577: 1048577 NPUs, over the bound of 1048576");
      ( "torus:4x4x4x4x4x4x4x4x4x4",
        "torus:4x4x4x4x4x4x4x4x4x4: 20971520 links, over the bound of 16777216" );
      ("rfs:4x4096x64", "rfs:4x4096x64: 4297064448 links, over the bound of 16777216");
      ("dragonfly:2x8192", "dragonfly:2x8192: 134201346 links, over the bound of 16777216");
    ];
  match Parse.parse_topology_lines [ "npus 1000000000000" ] with
  | Ok _ -> Alcotest.fail "npus 1000000000000 should be rejected"
  | Error e ->
    Alcotest.(check string) "npus header" "line 1: 1000000000000 NPUs, over the bound of 1048576" e

let test_parse_topology_link_params () =
  (match Parse.parse_topology ~alpha:1e-6 ~bw:100e9 "ring:4" with
  | Error e -> Alcotest.fail e
  | Ok topo ->
    let e = List.hd (Topology.edges topo) in
    Alcotest.check feq "bandwidth" 100e9 (Link.bandwidth e.Topology.link);
    Alcotest.check feq "alpha" 1e-6 (Link.cost e.Topology.link 0.));
  (* Bad link parameters are errors naming the value, not exceptions. *)
  List.iter
    (fun (alpha, bw, expected) ->
      match Parse.parse_topology ~alpha ~bw "rfs:2x2x2" with
      | Ok _ -> Alcotest.failf "alpha %g, bw %g should be rejected" alpha bw
      | Error e -> Alcotest.(check string) (Printf.sprintf "alpha %g, bw %g" alpha bw) expected e)
    [
      (infinity, 50e9, "link latency must be finite and non-negative, got inf s");
      (-1e-6, 50e9, "link latency must be finite and non-negative, got -1 us");
      (Float.nan, 50e9, "link latency must be finite and non-negative, got nan");
      (0.5e-6, 0., "link bandwidth must be positive, got 0 KB/s");
      (0.5e-6, -5e9, "link bandwidth must be positive, got -5 GB/s");
      (0.5e-6, Float.nan, "link bandwidth must be positive, got nan");
      (* positive, but its β (1 / bandwidth) overflows *)
      (0.5e-6, 1e-311, "link bandwidth 1e-314 KB/s is too small");
    ]

let test_parse_time () =
  List.iter
    (fun (input, expected) ->
      match Parse.parse_time input with
      | Ok v -> Alcotest.check feq input expected v
      | Error e -> Alcotest.failf "%s rejected: %s" input e)
    [ ("0.5us", 0.5e-6); ("30ns", 30e-9); ("2ms", 2e-3); ("1s", 1.); ("0.25", 0.25) ];
  List.iter
    (fun bad ->
      match Parse.parse_time bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [ "fast"; "inf"; "1e999us"; "nan"; "-1s" ]

let test_parse_topology_lines () =
  let lines =
    [
      "# a quad plus a diagonal";
      "npus 4";
      "ring 0 1 2 3 100GB/s 0.5us";
      "bilink 0 2 25GB/s 1us";
      "link 1 3 10GB/s 2us";
    ]
  in
  match Parse.parse_topology_lines ~name:"quad" lines with
  | Error e -> Alcotest.fail e
  | Ok topo ->
    Alcotest.(check int) "npus" 4 (Topology.num_npus topo);
    (* 8 ring links + 2 diagonal + 1 unidirectional. *)
    Alcotest.(check int) "links" 11 (Topology.num_links topo);
    let diag = List.hd (Topology.find_links topo ~src:0 ~dst:2) in
    Alcotest.check feq "diagonal bandwidth" 25e9 (Link.bandwidth diag.Topology.link);
    let uni = Topology.find_links topo ~src:1 ~dst:3 in
    Alcotest.(check int) "unidirectional" 1 (List.length uni);
    Alcotest.(check int) "no reverse" 0
      (List.length (Topology.find_links topo ~src:3 ~dst:1))

let test_parse_topology_lines_errors () =
  let expect_error name lines =
    match Parse.parse_topology_lines lines with
    | Ok _ -> Alcotest.failf "%s should be rejected" name
    | Error _ -> ()
  in
  expect_error "missing npus" [ "link 0 1 50GB/s 1us" ];
  expect_error "bad npu id" [ "npus 2"; "link 0 5 50GB/s 1us" ];
  expect_error "bad bandwidth" [ "npus 2"; "link 0 1 fast 1us" ];
  expect_error "unknown directive" [ "npus 2"; "wormhole 0 1" ];
  expect_error "no links" [ "npus 2" ];
  expect_error "empty" []

let test_parse_topology_file_roundtrip () =
  let path = Filename.temp_file "tacos" ".topo" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "npus 3\nring 0 1 2 50GB/s 0.5us\n");
  let result = Parse.parse_topology_file path in
  Sys.remove path;
  match result with
  | Error e -> Alcotest.fail e
  | Ok topo -> Alcotest.(check int) "ring of three" 6 (Topology.num_links topo)

let test_parse_patterns () =
  let ok input expected =
    match Parse.parse_pattern input 8 with
    | Ok p -> Alcotest.(check bool) input true (p = expected)
    | Error e -> Alcotest.failf "%s rejected: %s" input e
  in
  ok "all-gather" Pattern.All_gather;
  ok "ag" Pattern.All_gather;
  ok "ALL-REDUCE" Pattern.All_reduce;
  ok "rs" Pattern.Reduce_scatter;
  ok "broadcast:3" (Pattern.Broadcast 3);
  ok "reduce" (Pattern.Reduce 0);
  List.iter
    (fun bad ->
      match Parse.parse_pattern bad 8 with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [ "gossip"; "broadcast:9"; "broadcast:-1" ]

let () =
  Alcotest.run "collective"
    [
      ( "pattern",
        [
          Alcotest.test_case "counterparts" `Quick test_pattern_counterparts;
          Alcotest.test_case "combining" `Quick test_pattern_combining;
        ] );
      ( "spec",
        [
          Alcotest.test_case "chunk accounting" `Quick test_spec_chunk_accounting;
          Alcotest.test_case "broadcast chunks" `Quick test_spec_broadcast_chunks;
          Alcotest.test_case "All-Gather conditions" `Quick test_spec_ag_conditions;
          Alcotest.test_case "Reduce-Scatter conditions" `Quick test_spec_rs_conditions;
          Alcotest.test_case "reverse" `Quick test_spec_reverse;
          Alcotest.test_case "rejects bad root" `Quick test_spec_rejects_bad_root;
          Alcotest.test_case "rejects non-finite size" `Quick
            test_spec_rejects_non_finite_size;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "makespan" `Quick test_schedule_makespan;
          Alcotest.test_case "validates Fig. 7 ring AG" `Quick
            test_schedule_validates_ring_ag;
          Alcotest.test_case "shift and concat" `Quick test_schedule_shift_and_concat;
          Alcotest.test_case "reverse round-trip" `Quick test_schedule_reverse_roundtrip;
          Alcotest.test_case "reversed AG is a valid RS" `Quick
            test_reversed_ag_is_valid_rs;
        ] );
      ( "validator",
        [
          Alcotest.test_case "rejects congestion" `Quick test_validator_rejects_congestion;
          Alcotest.test_case "rejects teleportation" `Quick
            test_validator_rejects_teleportation;
          Alcotest.test_case "rejects too-fast sends" `Quick
            test_validator_rejects_too_fast_sends;
          Alcotest.test_case "rejects unmet postcondition" `Quick
            test_validator_rejects_unmet_postcondition;
          Alcotest.test_case "rejects wrong endpoints" `Quick
            test_validator_rejects_wrong_endpoints;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "link bytes" `Quick test_link_bytes;
          Alcotest.test_case "full utilization" `Quick test_average_utilization_full;
          Alcotest.test_case "utilization timeline" `Quick test_utilization_timeline;
          Alcotest.test_case "chunk path" `Quick test_chunk_path;
          Alcotest.test_case "JSON export" `Quick test_schedule_to_json;
          Alcotest.test_case "JSON round trip" `Quick test_schedule_json_roundtrip;
          Alcotest.test_case "JSON import rejects malformed" `Quick
            test_of_json_rejects_malformed;
          Alcotest.test_case "JSON import rejects infinite times" `Quick
            test_of_json_rejects_infinite_time;
          Alcotest.test_case "All-Gather phase checked in its own order" `Quick
            test_all_gather_phase_order;
          Alcotest.test_case "per-NPU lowering" `Quick test_lowering_programs;
          Alcotest.test_case "SVG rendering" `Quick test_svg_render;
        ] );
      ( "parse",
        [
          Alcotest.test_case "sizes" `Quick test_parse_sizes;
          Alcotest.test_case "topologies" `Quick test_parse_topologies;
          Alcotest.test_case "zero or negative dimensions" `Quick test_parse_topology_bad_dims;
          Alcotest.test_case "link parameters" `Quick test_parse_topology_link_params;
          Alcotest.test_case "oversized fabrics" `Quick test_parse_topology_too_large;
          Alcotest.test_case "patterns" `Quick test_parse_patterns;
          Alcotest.test_case "durations" `Quick test_parse_time;
          Alcotest.test_case "topology files" `Quick test_parse_topology_lines;
          Alcotest.test_case "topology file errors" `Quick
            test_parse_topology_lines_errors;
          Alcotest.test_case "topology file round trip" `Quick
            test_parse_topology_file_roundtrip;
        ] );
      ( "ideal",
        [
          Alcotest.test_case "All-Reduce bound on ring" `Quick
            test_ideal_all_reduce_bidirectional_ring;
          Alcotest.test_case "AG bound is half of AR" `Quick test_ideal_ag_half_of_ar;
          Alcotest.test_case "efficiency and bandwidth" `Quick test_ideal_efficiency;
        ] );
    ]
