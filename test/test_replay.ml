(* Equivalence pins for the replay path: the order the event queue pops in,
   the routes Dijkstra picks, the program [Program.of_schedule] builds and
   the report [Engine.run] returns.

   The reference implementations below are the straightforward versions of
   the production code: a [Set]-ordered Dijkstra and a [Hashtbl]-indexed
   [of_schedule]. They stay here as oracles for the optimized code. The
   golden digests hash every float with [%h] (exact hex) rather than
   [Marshal], whose output follows how floats are shared in the heap and so
   can change while every value stays the same. *)

open Tacos_topology
open Tacos_collective
open Tacos_sim
module Pq = Tacos_util.Pq
module Rng = Tacos_util.Rng
module Synth = Tacos.Synthesizer

let bits = Int64.bits_of_float

(* --- Pq against a stable sort ---------------------------------------------- *)

(* Keys are offsets from the last popped key, in halves, so pushes land at,
   above and below it and many keys tie; [Push_neg_zero] ties -0. with 0.
   and checks that a popped key keeps its sign bit. *)
type pq_op = Pop | Push of int | Push_neg_zero

let pq_op_to_string = function
  | Pop -> "pop"
  | Push d -> Printf.sprintf "push %+d" d
  | Push_neg_zero -> "push -0."

let gen_pq_ops =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (frequency
         [
           (4, return Pop);
           (3, return (Push 0));
           (4, map (fun d -> Push d) (int_range (-4) 4));
           (1, return Push_neg_zero);
         ]))

(* The model: pending entries in insertion order; the next pop is the
   first entry of the list stably sorted by key, i.e. the least key with
   ties in insertion order. Keys compare with [<], as the heap does, so
   -0. and 0. tie. *)
let model_pop pending =
  let cmp (a, _) (b, _) = if a < b then -1 else if b < a then 1 else 0 in
  match List.stable_sort cmp pending with
  | [] -> None
  | ((_, v) as least) :: _ ->
    Some (least, List.filter (fun (_, v') -> v' <> v) pending)

let prop_pq_matches_stable_sort =
  QCheck.Test.make ~name:"pops in (key, insertion) order" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pq_op_to_string ops))
        gen_pq_ops)
    (fun ops ->
      let q = Pq.create () in
      let pending = ref [] and last = ref 0. and next = ref 0 in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some (k, v), Some (k', v') -> bits k = bits k' && v = v'
        | _ -> false
      in
      let pop () =
        let expected =
          match model_pop !pending with
          | None -> None
          | Some (least, rest) ->
            pending := rest;
            Some least
        in
        let got = Pq.pop q in
        if not (same expected got) then QCheck.Test.fail_report "pop mismatch";
        Option.iter (fun (k, _) -> last := k) got
      in
      let push key =
        Pq.push q key !next;
        pending := !pending @ [ (key, !next) ];
        incr next
      in
      List.iter
        (fun op ->
          (match op with
          | Pop -> pop ()
          | Push d -> push (!last +. (0.5 *. float_of_int d))
          | Push_neg_zero -> push (-0.));
          let size = List.length !pending in
          if Pq.size q <> size || Pq.is_empty q <> (size = 0) then
            QCheck.Test.fail_report "size mismatch";
          let least = Option.map (fun ((k, _), _) -> k) (model_pop !pending) in
          match (least, Pq.peek_key q) with
          | None, None -> ()
          | Some k, Some k' when bits k = bits k' -> ()
          | _ -> QCheck.Test.fail_report "peek_key mismatch")
        ops;
      while not (Pq.is_empty q) do
        pop ()
      done;
      !pending = [])

(* --- Dijkstra against a Set-ordered oracle --------------------------------- *)

module Pair_set = Set.Make (struct
  type t = float * int

  let compare = compare
end)

(* Dijkstra popping (dist, node) pairs in [Set] order, relaxing [edges_of v]
   in list order with a strict improvement test; [relax] returns the
   neighbour and the edge's cost. Returns distances and, per node, the node
   it was last relaxed from. *)
let oracle_dijkstra n ~source ~edges_of ~relax =
  let dist = Array.make n infinity and via = Array.make n (-1) in
  dist.(source) <- 0.;
  let pq = ref (Pair_set.singleton (0., source)) in
  while not (Pair_set.is_empty !pq) do
    let ((d, v) as elt) = Pair_set.min_elt !pq in
    pq := Pair_set.remove elt !pq;
    if d <= dist.(v) then
      List.iter
        (fun e ->
          let u, cost = relax e in
          let nd = d +. cost in
          if nd < dist.(u) then begin
            dist.(u) <- nd;
            via.(u) <- v;
            pq := Pair_set.add (nd, u) !pq
          end)
        (edges_of v)
  done;
  (dist, via)

(* Random fabrics with parallel links, some one-way links, mixed α and β
   from small sets (so many paths tie in cost), and no guarantee of
   connectivity. *)
let random_topology rng =
  let n = 2 + Rng.int rng 8 in
  let t = Topology.create n in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let link () =
    Link.make ~alpha:(pick [| 0.; 0.5; 1.; 1. |]) ~beta:(pick [| 0.; 0.25; 1.; 1. |])
  in
  if Rng.int rng 2 = 0 then
    for v = 0 to n - 1 do
      Topology.add_bidir t v ((v + 1) mod n) (link ())
    done;
  for _ = 1 to Rng.int rng (3 * n) do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      if Rng.int rng 3 = 0 then ignore (Topology.add_link t ~src:a ~dst:b (link ()))
      else Topology.add_bidir t a b (link ());
      (* A parallel twin, sometimes with a different cost. *)
      if Rng.int rng 4 = 0 then ignore (Topology.add_link t ~src:a ~dst:b (link ()))
    end
  done;
  t

let oracle_path via ~src ~dst =
  let rec go v acc = if v = dst then List.rev (v :: acc) else go via.(v) (v :: acc) in
  go src []

let test_routing_matches_oracle () =
  let rng = Rng.create 16 in
  for _ = 1 to 300 do
    let topo = random_topology rng in
    let n = Topology.num_npus topo in
    let size = [| 0.; 1.; 2.; 4. |].(Rng.int rng 4) in
    let table = Routing.build_partial topo ~size in
    for dst = 0 to n - 1 do
      (* Towards [dst] over reversed edges, as the router builds it. *)
      let dist, via =
        oracle_dijkstra n ~source:dst ~edges_of:(Topology.in_edges topo)
          ~relax:(fun (e : Topology.edge) -> (e.src, Link.cost e.link size))
      in
      for src = 0 to n - 1 do
        let reachable = dist.(src) < infinity in
        Alcotest.(check bool) "reachable" reachable (Routing.reachable table ~src ~dst);
        Alcotest.(check int64) "path cost bits" (bits dist.(src))
          (bits (Routing.path_cost table ~src ~dst));
        Alcotest.(check (option (list int)))
          (Printf.sprintf "route %d->%d" src dst)
          (if reachable then Some (oracle_path via ~src ~dst) else None)
          (Routing.path_opt table ~src ~dst)
      done
    done
  done

let test_diameter_latency_matches_oracle () =
  let rng = Rng.create 17 in
  for _ = 1 to 300 do
    let topo = random_topology rng in
    let n = Topology.num_npus topo in
    let expected =
      let worst = ref 0. in
      for src = 0 to n - 1 do
        let dist, _ =
          oracle_dijkstra n ~source:src ~edges_of:(Topology.out_edges topo)
            ~relax:(fun (e : Topology.edge) -> (e.dst, e.link.Link.alpha))
        in
        Array.iter (fun d -> worst := Float.max !worst d) dist
      done;
      if !worst = infinity then None else Some !worst
    in
    match (expected, Topology.diameter_latency topo) with
    | Some d, d' -> Alcotest.(check int64) "diameter bits" (bits d) (bits d')
    | None, d -> Alcotest.failf "expected Failure on a disconnected fabric, got %h" d
    | exception Failure _ when expected = None -> ()
  done

(* --- of_schedule against a Hashtbl-indexed oracle -------------------------- *)

let oracle_of_schedule ?(tag_of = fun (s : Schedule.send) -> Printf.sprintf "chunk%d" s.chunk)
    ~chunk_size (sched : Schedule.t) =
  let b = Program.builder () in
  let delivered = Hashtbl.create 64 in
  List.iter
    (fun (s : Schedule.send) ->
      let deps = Option.value ~default:[] (Hashtbl.find_opt delivered (s.src, s.chunk)) in
      let id = Program.add b ~tag:(tag_of s) ~deps ~src:s.src ~dst:s.dst ~size:chunk_size () in
      let at_dst = Option.value ~default:[] (Hashtbl.find_opt delivered (s.dst, s.chunk)) in
      Hashtbl.replace delivered (s.dst, s.chunk) (id :: at_dst))
    (Schedule.sends sched);
  Program.build b

let transfer_rows p =
  Array.to_list
    (Array.map
       (fun (tr : Program.transfer) ->
         Printf.sprintf "%d %s %d->%d %h [%s]" tr.id tr.tag tr.src tr.dst tr.size
           (String.concat "," (List.map string_of_int tr.deps)))
       (Program.transfers p))

let random_schedule rng =
  let npus = 1 + Rng.int rng 9 and chunks = 1 + Rng.int rng 12 in
  let sends =
    List.init (Rng.int rng 120) (fun _ ->
        let start = float_of_int (Rng.int rng 20) in
        {
          Schedule.chunk = Rng.int rng chunks;
          edge = Rng.int rng 30;
          src = Rng.int rng npus;
          dst = Rng.int rng npus;
          start;
          finish = start +. float_of_int (Rng.int rng 3);
        })
  in
  Schedule.make sends

let test_of_schedule_matches_oracle () =
  let rng = Rng.create 18 in
  let phase (s : Schedule.send) = if s.start < 10. then "early" else "late" in
  for _ = 1 to 300 do
    let sched = random_schedule rng in
    let chunk_size = float_of_int (Rng.int rng 5) in
    Alcotest.(check (list string)) "default tags"
      (transfer_rows (oracle_of_schedule ~chunk_size sched))
      (transfer_rows (Program.of_schedule ~chunk_size sched));
    Alcotest.(check (list string)) "custom tags"
      (transfer_rows (oracle_of_schedule ~tag_of:phase ~chunk_size sched))
      (transfer_rows (Program.of_schedule ~tag_of:phase ~chunk_size sched))
  done

(* --- golden reports ------------------------------------------------------- *)

(* Every field of a program and of its report, floats in exact hex. *)
let digest program (r : Engine.report) =
  let b = Buffer.create 65536 in
  List.iter (fun row -> Printf.bprintf b "%s\n" row) (transfer_rows program);
  let f x = Printf.bprintf b "%h;" x in
  f r.Engine.finish_time;
  Array.iter f r.Engine.transfer_finish;
  Array.iter f r.Engine.link_bytes;
  Array.iter f r.Engine.link_busy;
  Array.iteri
    (fun i l ->
      Printf.bprintf b "\nL%d:" i;
      List.iter (fun (s, e) -> f s; f e) l)
    r.Engine.link_intervals;
  List.iter
    (fun (s : Engine.stranded) ->
      Printf.bprintf b "\nS%d,%s,%d,%d," s.tid s.tag s.at_npu s.dst;
      f s.time)
    r.Engine.stranded;
  Digest.to_hex (Digest.string (Buffer.contents b))

let parse_ok topo pattern ~chunks ~size =
  let topo = Result.get_ok (Parse.parse_topology topo) in
  let npus = Topology.num_npus topo in
  let pattern = Result.get_ok (Parse.parse_pattern pattern npus) in
  (topo, Spec.make ~chunks_per_npu:chunks ~buffer_size:size ~pattern ~npus ())

let synthesized topo pattern ~chunks ~size =
  let topo, spec = parse_ok topo pattern ~chunks ~size in
  let result = Synth.synthesize ~seed:1 ~trials:1 ~domains:1 topo spec in
  (topo, result, Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule)

(* The seven configs of the benchmark's flat-paper workload, at 64 MB and
   synthesis seed 1. *)
let flat_paper_goldens =
  [
    ("dgx1", "all-reduce", 16, "9ed029d0a65cf1b56723b2a50735e959");
    ("dragonfly", "all-reduce", 4, "2c143177e6c5718766e5bbd56565dc7a");
    ("switch:64", "all-reduce", 1, "3e602006951a805f3a26058b723b20db");
    ("mesh:8x8", "all-gather", 4, "0cb5735974cf0d2ff3bf105d2f2c7503");
    ("torus:4x4x4", "all-reduce", 4, "49ed710b8b1b9b062911a019ecd9582d");
    ("rfs:2x8x8", "all-reduce", 1, "6468912d990c663b2b13c022371a9134");
    ("mesh:16x16", "all-gather", 1, "820e025b6b0bce3c2ef89a8d17122359");
  ]

let test_flat_paper_goldens () =
  List.iter
    (fun (t, p, chunks, golden) ->
      let topo, _, program = synthesized t p ~chunks ~size:64e6 in
      Alcotest.(check string)
        (Printf.sprintf "%s %s k%d" t p chunks)
        golden
        (digest program (Engine.run topo program)))
    flat_paper_goldens

(* Mid-flight faults on a synthesized mesh All-Gather: a degradation, a
   death and recovery (reroutes over the degraded routing table) and the
   death of both links into NPU 0 (strands every transfer still bound for
   it). *)
let test_faulted_golden () =
  let topo, result, program = synthesized "mesh:4x4" "all-gather" ~chunks:2 ~size:4e6 in
  let span = result.Synth.collective_time in
  let link src dst = (List.hd (Topology.find_links topo ~src ~dst)).Topology.id in
  let faults =
    Engine.
      [
        Link_degrades { link = link 5 6; factor = 3.; at = 0.1 *. span };
        Link_dies { link = link 9 10; at = 0.2 *. span };
        Link_dies { link = link 1 0; at = 0.3 *. span };
        Link_dies { link = link 4 0; at = 0.3 *. span };
        Link_recovers { link = link 9 10; at = 0.5 *. span };
      ]
  in
  let report = Engine.run ~faults topo program in
  Alcotest.(check bool) "some transfers strand" true (report.Engine.stranded <> []);
  Alcotest.(check string) "faulted mesh:4x4 all-gather" "0ef21dc341b2dacfe0be4c2a236fe112"
    (digest program report)

(* A routed baseline: multi-hop store-and-forward over equal-cost paths. *)
let test_routed_golden () =
  let topo, spec = parse_ok "torus:4x4" "all-reduce" ~chunks:1 ~size:1e6 in
  let program = Tacos_baselines.Algo.program Tacos_baselines.Algo.Direct topo spec in
  Alcotest.(check string) "direct on torus:4x4" "8a2471cabd7ab0ec950eba345674c76a"
    (digest program (Engine.run topo program))

let () =
  Alcotest.run "replay"
    [
      ("pq", List.map QCheck_alcotest.to_alcotest [ prop_pq_matches_stable_sort ]);
      ( "routing",
        [
          Alcotest.test_case "build_partial matches Set Dijkstra" `Quick
            test_routing_matches_oracle;
          Alcotest.test_case "diameter_latency matches Set Dijkstra" `Quick
            test_diameter_latency_matches_oracle;
        ] );
      ( "program",
        [
          Alcotest.test_case "of_schedule matches Hashtbl oracle" `Quick
            test_of_schedule_matches_oracle;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "flat-paper reports" `Quick test_flat_paper_goldens;
          Alcotest.test_case "faulted report" `Quick test_faulted_golden;
          Alcotest.test_case "routed report" `Quick test_routed_golden;
        ] );
    ]
