(* Tests for the topology substrate: graph mechanics, every builder in the
   zoo (Table IV + DGX-1), hierarchy bookkeeping, routing, and randomized
   structural properties. *)

open Tacos_topology

let feq = Alcotest.float 1e-9
let unit_link = Link.make ~alpha:1. ~beta:0.

(* --- Link ---------------------------------------------------------------- *)

let test_link_cost () =
  let l = Link.make ~alpha:0.5e-6 ~beta:(1. /. 50e9) in
  Alcotest.check feq "cost of 1 MB" (0.5e-6 +. (1e6 /. 50e9)) (Link.cost l 1e6);
  Alcotest.check feq "bandwidth" 50e9 (Link.bandwidth l)

let test_link_of_bandwidth () =
  let l = Link.of_bandwidth ~alpha:1e-6 100e9 in
  Alcotest.check feq "beta" (1. /. 100e9) (Link.cost l 1. -. 1e-6)

let test_link_scale_beta () =
  (* Switch unwinding multiplies β by the degree while α is unchanged. *)
  let l = Link.of_bandwidth 50e9 in
  let l3 = Link.scale_beta l 3. in
  Alcotest.check feq "alpha kept" 0.5e-6 (Link.cost l3 0.);
  Alcotest.check feq "bandwidth divided" (50e9 /. 3.) (Link.bandwidth l3)

let test_link_rejects_negative () =
  Alcotest.check_raises "negative alpha" (Invalid_argument "Link.make: negative cost")
    (fun () -> ignore (Link.make ~alpha:(-1.) ~beta:0.))

let test_link_rejects_non_finite () =
  List.iter
    (fun (alpha, beta) ->
      Alcotest.check_raises
        (Printf.sprintf "alpha %g, beta %g" alpha beta)
        (Invalid_argument "Link.make: non-finite cost")
        (fun () -> ignore (Link.make ~alpha ~beta)))
    [ (infinity, 0.); (Float.nan, 0.); (0., infinity); (0., Float.nan) ];
  Alcotest.check_raises "infinite alpha through of_bandwidth"
    (Invalid_argument "Link.make: non-finite cost")
    (fun () -> ignore (Link.of_bandwidth ~alpha:infinity 50e9));
  Alcotest.check_raises "NaN bandwidth"
    (Invalid_argument "Link.of_bandwidth: nonpositive bandwidth")
    (fun () -> ignore (Link.of_bandwidth Float.nan))

(* --- Graph mechanics ------------------------------------------------------ *)

let test_add_link_and_lookup () =
  let t = Topology.create 3 in
  let id01 = Topology.add_link t ~src:0 ~dst:1 unit_link in
  let id12 = Topology.add_link t ~src:1 ~dst:2 unit_link in
  Alcotest.(check int) "ids sequential" 0 id01;
  Alcotest.(check int) "ids sequential" 1 id12;
  Alcotest.(check int) "num links" 2 (Topology.num_links t);
  let e = Topology.edge t id12 in
  Alcotest.(check int) "src" 1 e.Topology.src;
  Alcotest.(check int) "dst" 2 e.Topology.dst;
  Alcotest.(check int) "out degree" 1 (List.length (Topology.out_edges t 0));
  Alcotest.(check int) "in degree" 1 (List.length (Topology.in_edges t 1))

let test_parallel_links () =
  let t = Topology.create 2 in
  ignore (Topology.add_link t ~src:0 ~dst:1 unit_link);
  ignore (Topology.add_link t ~src:0 ~dst:1 unit_link);
  Alcotest.(check int) "both parallel links found" 2
    (List.length (Topology.find_links t ~src:0 ~dst:1))

let test_self_loop_rejected () =
  let t = Topology.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_link: self-loop")
    (fun () -> ignore (Topology.add_link t ~src:1 ~dst:1 unit_link))

let test_strong_connectivity () =
  let t = Topology.create 3 in
  ignore (Topology.add_link t ~src:0 ~dst:1 unit_link);
  ignore (Topology.add_link t ~src:1 ~dst:2 unit_link);
  Alcotest.(check bool) "not yet" false (Topology.is_strongly_connected t);
  ignore (Topology.add_link t ~src:2 ~dst:0 unit_link);
  Alcotest.(check bool) "cycle closes it" true (Topology.is_strongly_connected t)

let test_reverse () =
  let t = Topology.create 3 in
  let id = Topology.add_link t ~src:0 ~dst:2 unit_link in
  let r = Topology.reverse t in
  let e = Topology.edge r id in
  Alcotest.(check int) "flipped src" 2 e.Topology.src;
  Alcotest.(check int) "flipped dst" 0 e.Topology.dst;
  Alcotest.(check int) "same link count" (Topology.num_links t) (Topology.num_links r)

let test_diameter () =
  let t = Builders.ring ~link:unit_link 6 in
  Alcotest.check feq "bidirectional 6-ring diameter" 3. (Topology.diameter_latency t)

let test_min_ingress_bandwidth () =
  let t = Builders.ring ~link:(Link.of_bandwidth 50e9) 4 in
  (* Two incoming links per NPU on a bidirectional ring. *)
  Alcotest.check feq "2 x 50 GB/s" 100e9 (Topology.min_ingress_bandwidth t)

(* --- Builders ------------------------------------------------------------- *)

let test_ring_builder () =
  let t = Builders.ring 8 in
  Alcotest.(check int) "links" 16 (Topology.num_links t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t);
  let uni = Builders.ring ~bidirectional:false 8 in
  Alcotest.(check int) "unidirectional links" 8 (Topology.num_links uni)

let test_ring_of_two () =
  (* Degenerate ring: exactly one bidirectional pair, no doubled link. *)
  let t = Builders.ring 2 in
  Alcotest.(check int) "two links" 2 (Topology.num_links t)

let test_fully_connected_builder () =
  let t = Builders.fully_connected 6 in
  Alcotest.(check int) "n(n-1) links" 30 (Topology.num_links t)

let test_mesh_builder () =
  let t = Builders.mesh [| 3; 3 |] in
  (* 2D mesh 3x3: 12 bidirectional edges = 24 links. *)
  Alcotest.(check int) "links" 24 (Topology.num_links t);
  Alcotest.(check bool) "asymmetric degrees" true
    (List.length (Topology.out_edges t 4) = 4
    && List.length (Topology.out_edges t 0) = 2)

let test_torus_builder () =
  let t = Builders.torus [| 4; 4 |] in
  (* Every node has degree 4 in a 2D torus. *)
  Alcotest.(check int) "links" (16 * 4) (Topology.num_links t);
  for v = 0 to 15 do
    Alcotest.(check int) "uniform degree" 4 (List.length (Topology.out_edges t v))
  done

let test_torus_size_two_dims () =
  (* Size-2 rings must not double links: a 2x2 torus is a 4-cycle. *)
  let t = Builders.torus [| 2; 2 |] in
  Alcotest.(check int) "links" 8 (Topology.num_links t)

let test_hypercube_builder () =
  let t = Builders.hypercube 3 in
  Alcotest.(check int) "8 nodes" 8 (Topology.num_npus t);
  Alcotest.(check int) "3 links each way per node" (8 * 3) (Topology.num_links t);
  Alcotest.check feq "diameter 3 hops" 3.
    (Topology.diameter_latency (Builders.hypercube ~link:unit_link 3))

let test_switch_builder () =
  let t = Builders.switch ~degree:2 8 in
  Alcotest.(check int) "degree-2 unwinding" 16 (Topology.num_links t);
  (* β is scaled by the degree: bandwidth halves. *)
  let e = List.hd (Topology.edges t) in
  Alcotest.check feq "shared bandwidth" 25e9 (Link.bandwidth e.Topology.link)

let test_switch_degree_bounds () =
  Alcotest.check_raises "degree too large"
    (Invalid_argument "Builders: switch degree out of range") (fun () ->
      ignore (Builders.switch ~degree:4 4))

let test_hierarchical_coords () =
  let t =
    Builders.hierarchical
      [|
        { Topology.kind = Topology.Ring_dim; size = 2; link = unit_link };
        { Topology.kind = Topology.Fully_connected_dim; size = 3; link = unit_link };
      |]
  in
  Alcotest.(check int) "6 NPUs" 6 (Topology.num_npus t);
  Alcotest.(check (array int)) "coords round trip" [| 1; 2 |] (Topology.coords t 5);
  Alcotest.(check int) "of_coords" 5 (Topology.of_coords t [| 1; 2 |]);
  Alcotest.(check (list int)) "dim 1 group of node 0" [ 0; 2; 4 ]
    (Topology.dim_group t ~dim:1 0)

let test_rfs3d_builder () =
  let t = Builders.rfs3d ~bw:(200e9, 100e9, 50e9) (2, 4, 8) in
  Alcotest.(check int) "64 NPUs" 64 (Topology.num_npus t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t);
  (* Ring(2): 1 link per node; FC(4): 3; Switch-d1(8): 1. *)
  Alcotest.(check int) "per-node out degree" 5 (List.length (Topology.out_edges t 0))

let test_two_level_switch () =
  let t = Builders.two_level_switch ~bw:(300e9, 25e9) (8, 4) in
  Alcotest.(check int) "32 NPUs" 32 (Topology.num_npus t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t)

let test_dragonfly_builder () =
  let t = Builders.dragonfly ~bw:(400e9, 200e9) () in
  Alcotest.(check int) "20 NPUs" 20 (Topology.num_npus t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t);
  (* Intra-group FC: 5*4 per group * 4 groups; global: 6 pairs bidir. *)
  Alcotest.(check int) "links" ((4 * 20) + 12) (Topology.num_links t);
  (* Asymmetry: members hosting global links have degree 5, others 4. *)
  let degrees =
    List.init 20 (fun v -> List.length (Topology.out_edges t v))
  in
  Alcotest.(check bool) "asymmetric" true
    (List.exists (fun d -> d = 5) degrees && List.exists (fun d -> d = 4) degrees)

let test_flattened_butterfly () =
  let t = Builders.flattened_butterfly ~link:unit_link [| 4; 4 |] in
  Alcotest.(check int) "16 NPUs" 16 (Topology.num_npus t);
  (* Each node: 3 row + 3 column FC links, both directions counted once each
     way: 16 * 6 directed. *)
  Alcotest.(check int) "links" 96 (Topology.num_links t);
  Alcotest.check feq "diameter 2 hops" 2. (Topology.diameter_latency t)

let test_slimfly_mms_q5 () =
  let t = Builders.slimfly ~link:unit_link () in
  Alcotest.(check int) "50 NPUs" 50 (Topology.num_npus t);
  List.iter
    (fun v -> Alcotest.(check int) "degree 7" 7 (List.length (Topology.out_edges t v)))
    (List.init 50 Fun.id);
  Alcotest.check feq "diameter 2 (near Moore bound)" 2. (Topology.diameter_latency t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t)

let test_tofu_builder () =
  let t = Builders.tofu (2, 2, 2) in
  Alcotest.(check int) "6D torus node count" 96 (Topology.num_npus t);
  Alcotest.(check bool) "strongly connected" true (Topology.is_strongly_connected t);
  match Topology.hierarchy t with
  | Some dims -> Alcotest.(check int) "six dimensions" 6 (Array.length dims)
  | None -> Alcotest.fail "tofu must record its hierarchy"

let test_dgx1_builder () =
  let t = Builders.dgx1 () in
  Alcotest.(check int) "8 GPUs" 8 (Topology.num_npus t);
  (* 24 NVLinks, each bidirectional. *)
  Alcotest.(check int) "48 directed links" 48 (Topology.num_links t);
  for v = 0 to 7 do
    Alcotest.(check int) "6 NVLinks per GPU" 6 (List.length (Topology.out_edges t v))
  done

let test_dgx1_rings_are_edge_disjoint () =
  let t = Builders.dgx1 () in
  match Topology.rings t with
  | None -> Alcotest.fail "DGX-1 must record its ring decomposition"
  | Some rings ->
    Alcotest.(check int) "three rings" 3 (List.length rings);
    (* Walking all rings in both directions must consume each directed link
       exactly once: 3 rings * 8 hops * 2 directions = 48 = all links. *)
    let used = Hashtbl.create 64 in
    List.iter
      (fun ring ->
        let n = Array.length ring in
        for i = 0 to n - 1 do
          List.iter
            (fun (s, d) ->
              let candidates =
                List.filter
                  (fun (e : Topology.edge) -> not (Hashtbl.mem used e.Topology.id))
                  (Topology.find_links t ~src:s ~dst:d)
              in
              match candidates with
              | [] -> Alcotest.failf "ring hop %d->%d has no free physical link" s d
              | e :: _ -> Hashtbl.add used e.Topology.id ())
            [ (ring.(i), ring.((i + 1) mod n)); (ring.((i + 1) mod n), ring.(i)) ]
        done)
      rings;
    Alcotest.(check int) "all 48 links consumed" 48 (Hashtbl.length used)

let test_cut_hints_recorded () =
  let df = Builders.dragonfly ~bw:(400e9, 200e9) () in
  Alcotest.(check int) "dragonfly: one hint per group" 4
    (List.length (Topology.cut_hints df));
  let rfs = Builders.rfs3d ~bw:(200e9, 100e9, 50e9) (2, 4, 8) in
  (* Slabs: 2 + 4 + 8 coordinate values. *)
  Alcotest.(check int) "3D-RFS: one slab per coordinate" 14
    (List.length (Topology.cut_hints rfs))

let test_ingress_bandwidth_of_subset () =
  let t = Builders.ring ~link:(Link.of_bandwidth 50e9) 6 in
  (* Any 3 consecutive nodes have two boundary in-links. *)
  Alcotest.(check (float 1e-3)) "boundary ingress" 100e9
    (Topology.ingress_bandwidth_of t [ 0; 1; 2 ]);
  Alcotest.(check (float 1e-3)) "whole set has no ingress" 0.
    (Topology.ingress_bandwidth_of t [ 0; 1; 2; 3; 4; 5 ])

let test_to_dot () =
  let t = Builders.ring 4 in
  let dot = Topology.to_dot t in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "bidirectional pairs collapsed" true (contains "dir=both");
  Alcotest.(check bool) "bandwidth label" true (contains "50 GB/s")

(* --- Routing -------------------------------------------------------------- *)

let test_routing_ring () =
  let t = Builders.ring ~link:unit_link 8 in
  let table = Routing.build_partial t ~size:0. in
  Alcotest.(check (option (list int))) "short way round" (Some [ 0; 7; 6 ])
    (Routing.path_opt table ~src:0 ~dst:6);
  Alcotest.check feq "cost" 2. (Routing.path_cost table ~src:0 ~dst:6)

let test_routing_prefers_fast_links () =
  let t = Topology.create 3 in
  ignore (Topology.add_link t ~src:0 ~dst:1 (Link.make ~alpha:1. ~beta:0.));
  ignore (Topology.add_link t ~src:1 ~dst:2 (Link.make ~alpha:1. ~beta:0.));
  ignore (Topology.add_link t ~src:0 ~dst:2 (Link.make ~alpha:5. ~beta:0.));
  ignore (Topology.add_link t ~src:2 ~dst:0 (Link.make ~alpha:1. ~beta:0.));
  let table = Routing.build_partial t ~size:0. in
  Alcotest.(check (option (list int))) "two cheap hops beat one dear hop" (Some [ 0; 1; 2 ])
    (Routing.path_opt table ~src:0 ~dst:2)

let test_routing_size_dependence () =
  (* A low-latency thin link wins for small messages; a fat link for large. *)
  let t = Topology.create 2 in
  ignore (Topology.add_link t ~src:0 ~dst:1 (Link.make ~alpha:1e-6 ~beta:(1. /. 1e9)));
  ignore (Topology.add_link t ~src:1 ~dst:0 (Link.make ~alpha:1e-6 ~beta:(1. /. 1e9)));
  let small = Routing.build_partial t ~size:1. in
  Alcotest.check (Alcotest.float 1e-12) "latency-bound cost"
    (1e-6 +. 1e-9) (Routing.path_cost small ~src:0 ~dst:1)

(* --- randomized properties ------------------------------------------------ *)

let dims_gen =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* sizes = list_repeat rank (int_range 2 4) in
    return (Array.of_list sizes))

let prop_torus_is_symmetric =
  QCheck.Test.make ~name:"torus: every node has identical degree" ~count:30
    (QCheck.make dims_gen) (fun sizes ->
      let t = Builders.torus sizes in
      let d0 = List.length (Topology.out_edges t 0) in
      List.for_all
        (fun v -> List.length (Topology.out_edges t v) = d0)
        (List.init (Topology.num_npus t) Fun.id))

let prop_builders_strongly_connected =
  QCheck.Test.make ~name:"mesh and torus are strongly connected" ~count:30
    (QCheck.make dims_gen) (fun sizes ->
      Topology.is_strongly_connected (Builders.mesh sizes)
      && Topology.is_strongly_connected (Builders.torus sizes))

let prop_coords_roundtrip =
  QCheck.Test.make ~name:"coords/of_coords round-trip" ~count:30
    (QCheck.make dims_gen) (fun sizes ->
      let t = Builders.torus sizes in
      List.for_all
        (fun v -> Topology.of_coords t (Topology.coords t v) = v)
        (List.init (Topology.num_npus t) Fun.id))

let prop_routing_paths_use_real_links =
  QCheck.Test.make ~name:"routed paths follow physical links" ~count:20
    (QCheck.make dims_gen) (fun sizes ->
      let t = Builders.mesh sizes in
      let table = Routing.build_partial t ~size:1e6 in
      let n = Topology.num_npus t in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              let rec ok = function
                | a :: (b :: _ as rest) ->
                  Topology.find_links t ~src:a ~dst:b <> [] && ok rest
                | _ -> true
              in
              ok (Option.get (Routing.path_opt table ~src ~dst)))
            (List.init n Fun.id))
        (List.init n Fun.id))

let () =
  Alcotest.run "topology"
    [
      ( "link",
        [
          Alcotest.test_case "cost model" `Quick test_link_cost;
          Alcotest.test_case "of_bandwidth" `Quick test_link_of_bandwidth;
          Alcotest.test_case "scale beta" `Quick test_link_scale_beta;
          Alcotest.test_case "rejects negative" `Quick test_link_rejects_negative;
          Alcotest.test_case "rejects non-finite" `Quick test_link_rejects_non_finite;
        ] );
      ( "graph",
        [
          Alcotest.test_case "add and lookup" `Quick test_add_link_and_lookup;
          Alcotest.test_case "parallel links" `Quick test_parallel_links;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "strong connectivity" `Quick test_strong_connectivity;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "min ingress bandwidth" `Quick test_min_ingress_bandwidth;
        ] );
      ( "builders",
        [
          Alcotest.test_case "ring" `Quick test_ring_builder;
          Alcotest.test_case "ring of two" `Quick test_ring_of_two;
          Alcotest.test_case "fully connected" `Quick test_fully_connected_builder;
          Alcotest.test_case "mesh" `Quick test_mesh_builder;
          Alcotest.test_case "torus" `Quick test_torus_builder;
          Alcotest.test_case "torus with size-2 dims" `Quick test_torus_size_two_dims;
          Alcotest.test_case "hypercube" `Quick test_hypercube_builder;
          Alcotest.test_case "switch unwinding" `Quick test_switch_builder;
          Alcotest.test_case "switch degree bounds" `Quick test_switch_degree_bounds;
          Alcotest.test_case "hierarchical coords" `Quick test_hierarchical_coords;
          Alcotest.test_case "3D-RFS" `Quick test_rfs3d_builder;
          Alcotest.test_case "2D switch" `Quick test_two_level_switch;
          Alcotest.test_case "dragonfly" `Quick test_dragonfly_builder;
          Alcotest.test_case "flattened butterfly" `Quick test_flattened_butterfly;
          Alcotest.test_case "SlimFly MMS q=5" `Quick test_slimfly_mms_q5;
          Alcotest.test_case "Tofu 6D" `Quick test_tofu_builder;
          Alcotest.test_case "DGX-1" `Quick test_dgx1_builder;
          Alcotest.test_case "DGX-1 ring decomposition" `Quick
            test_dgx1_rings_are_edge_disjoint;
        ] );
      ( "bounds-and-export",
        [
          Alcotest.test_case "cut hints recorded" `Quick test_cut_hints_recorded;
          Alcotest.test_case "subset ingress bandwidth" `Quick
            test_ingress_bandwidth_of_subset;
          Alcotest.test_case "GraphViz export" `Quick test_to_dot;
        ] );
      ( "routing",
        [
          Alcotest.test_case "ring paths" `Quick test_routing_ring;
          Alcotest.test_case "prefers cheap paths" `Quick test_routing_prefers_fast_links;
          Alcotest.test_case "size dependence" `Quick test_routing_size_dependence;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_torus_is_symmetric;
            prop_builders_strongly_connected;
            prop_coords_roundtrip;
            prop_routing_paths_use_real_links;
          ] );
    ]
