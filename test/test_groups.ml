(* Tests for hierarchical (process-group) synthesis: composed schedules
   validate and replay on the acceptance fabrics (Torus 3D, 2D-Switch,
   3D-RFS) for every decomposable pattern, isomorphic-group dedup costs one
   synthesis per distinct fingerprint, invalid partitions are rejected, and
   a randomized property over valid partition rewrites (dimension choice,
   uniform rank rotation, group reordering). *)

open Tacos_topology
open Tacos_collective
module Group = Tacos_groups.Group
module Plan = Tacos_groups.Plan
module Units = Tacos_util.Units
module Obs = Tacos_obs.Obs

let torus3d () = Builders.torus [| 4; 4; 4 |]

let switch2d () =
  Builders.two_level_switch ~bw:(Units.gbps 300., Units.gbps 25.) (8, 4)

let rfs3d () =
  Builders.rfs3d ~bw:(Units.gbps 200., Units.gbps 100., Units.gbps 50.) (2, 4, 8)

let fabrics = [ ("torus-4x4x4", torus3d); ("switch-8x4", switch2d); ("rfs-2x4x8", rfs3d) ]

let spec ?(chunks_per_npu = 1) ?(buffer_size = 64e6) pattern topo =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus:(Topology.num_npus topo) ()

let groups_exn topo grouping =
  match Plan.decompose topo grouping with
  | Ok groups -> groups
  | Error e -> Alcotest.failf "decompose failed: %s" e

(* Validate a composed result with the pattern-appropriate validator. *)
let check_valid topo (plan : Plan.t) =
  let result = plan.Plan.result in
  let outcome =
    match result.Tacos.Synthesizer.spec.Spec.pattern with
    | Pattern.All_reduce -> (
      match result.Tacos.Synthesizer.phases with
      | None -> Error "All-Reduce result carries no phase split"
      | Some (rs, ag) ->
        Schedule.validate_all_reduce topo result.Tacos.Synthesizer.spec
          ~reduce_scatter:rs ~all_gather:ag)
    | _ -> Schedule.validate topo result.Tacos.Synthesizer.spec result.Tacos.Synthesizer.schedule
  in
  match outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "composed schedule invalid: %s" e

(* Replay the composed schedule end-to-end under the congestion-aware
   engine: it must complete (every transfer lands, nothing stranded). *)
let check_replays topo (plan : Plan.t) =
  let result = plan.Plan.result in
  let chunk_size = Spec.chunk_size result.Tacos.Synthesizer.spec in
  let program = Tacos_sim.Program.of_schedule ~chunk_size result.Tacos.Synthesizer.schedule in
  let report = Tacos_sim.Engine.run topo program in
  Alcotest.(check int) "nothing stranded" 0 (List.length report.Tacos_sim.Engine.stranded);
  Alcotest.(check bool) "finishes" true
    (Float.is_finite report.Tacos_sim.Engine.finish_time
    && report.Tacos_sim.Engine.finish_time > 0.)

let patterns = [ Pattern.All_reduce; Pattern.All_gather; Pattern.Reduce_scatter; Pattern.Broadcast 5 ]

let test_fabric_matrix (name, build) () =
  let topo = build () in
  let groups = groups_exn topo Plan.Auto in
  List.iter
    (fun pattern ->
      let plan = Plan.synthesize topo (spec pattern topo) ~groups in
      check_valid topo plan;
      check_replays topo plan;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s composed time positive" name (Pattern.name pattern))
        true
        (plan.Plan.result.Tacos.Synthesizer.collective_time > 0.))
    patterns

let test_reduce_decomposes () =
  let topo = torus3d () in
  let groups = groups_exn topo (Plan.Dim 1) in
  let plan = Plan.synthesize topo (spec (Pattern.Reduce 9) topo) ~groups in
  check_valid topo plan;
  check_replays topo plan

let test_every_dim_decomposes () =
  let topo = torus3d () in
  List.iter
    (fun d ->
      let groups = groups_exn topo (Plan.Dim d) in
      let plan = Plan.synthesize topo (spec Pattern.All_gather topo) ~groups in
      check_valid topo plan)
    [ 0; 1; 2 ]

(* Exactly one synthesis per distinct (sub-fingerprint, sub-spec) pair: on a
   homogeneous torus all 4 slabs share a fingerprint and all 16 slices share
   a fingerprint, so All-Gather costs 2 syntheses and All-Reduce 3. *)
let test_dedup_counts () =
  let topo = torus3d () in
  let groups = groups_exn topo (Plan.Dim 0) in
  let distinct gs = List.sort_uniq compare (List.map Group.fingerprint gs) in
  Alcotest.(check int) "slabs share one fingerprint" 1 (List.length (distinct groups));
  Alcotest.(check int) "slices share one fingerprint" 1
    (List.length (distinct (Group.slices topo groups)));
  let ag = Plan.synthesize topo (spec Pattern.All_gather topo) ~groups in
  Alcotest.(check int) "AG: one synthesis per phase" 2 ag.Plan.syntheses;
  Alcotest.(check int) "AG: everything else deduped"
    (List.length groups + List.length (Group.slices topo groups) - 2)
    ag.Plan.dedup_hits;
  let ar = Plan.synthesize topo (spec Pattern.All_reduce topo) ~groups in
  Alcotest.(check int) "AR: one synthesis per phase" 3 ar.Plan.syntheses;
  Alcotest.(check bool) "dedup hits observed" true (ar.Plan.dedup_hits > 0);
  List.iter
    (fun (i : Plan.phase_info) ->
      Alcotest.(check int) (i.Plan.phase ^ ": parts accounted") i.Plan.parts
        (i.Plan.syntheses + i.Plan.dedup_hits))
    ar.Plan.phase_infos

let test_obs_metrics () =
  let topo = torus3d () in
  let groups = groups_exn topo (Plan.Dim 0) in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (Plan.synthesize topo (spec Pattern.All_reduce topo) ~groups);
      Alcotest.(check bool) "groups.dedup_hits > 0" true
        (Obs.value (Obs.counter "groups.dedup_hits") > 0);
      Alcotest.(check int) "groups.groups" 4 (Obs.value (Obs.counter "groups.groups"));
      Alcotest.(check int) "groups.phases" 3 (Obs.value (Obs.counter "groups.phases"));
      Alcotest.(check int) "groups.syntheses" 3 (Obs.value (Obs.counter "groups.syntheses")))

(* Parallel hierarchical synthesis must be a pure wall-clock optimization:
   at every domain count the composed schedule, the phase split, and the
   per-phase accounting (ownership of syntheses vs dedup hits included)
   match the sequential run bit for bit. Exercised with trials > 1 so both
   fan-out axes (sub-syntheses and randomized trials) share the pool. *)
let test_parallel_plan_bit_identical () =
  let topo = torus3d () in
  let groups = groups_exn topo (Plan.Dim 0) in
  List.iter
    (fun pattern ->
      let s = spec pattern topo in
      let seq = Plan.synthesize ~seed:13 ~trials:3 ~domains:1 topo s ~groups in
      List.iter
        (fun d ->
          let par = Plan.synthesize ~seed:13 ~trials:3 ~domains:d topo s ~groups in
          let label fmt =
            Printf.ksprintf
              (fun m -> Printf.sprintf "%s d=%d: %s" (Pattern.name pattern) d m)
              fmt
          in
          Alcotest.(check bool) (label "composed sends identical") true
            (Schedule.sends seq.Plan.result.Tacos.Synthesizer.schedule
            = Schedule.sends par.Plan.result.Tacos.Synthesizer.schedule);
          Alcotest.(check bool) (label "phase split identical") true
            (match
               ( seq.Plan.result.Tacos.Synthesizer.phases,
                 par.Plan.result.Tacos.Synthesizer.phases )
             with
            | Some (rs1, ag1), Some (rs2, ag2) ->
              Schedule.sends rs1 = Schedule.sends rs2
              && Schedule.sends ag1 = Schedule.sends ag2
            | None, None -> true
            | _ -> false);
          Alcotest.(check int) (label "syntheses") seq.Plan.syntheses
            par.Plan.syntheses;
          Alcotest.(check int) (label "dedup hits") seq.Plan.dedup_hits
            par.Plan.dedup_hits;
          (* phase_infos minus the machine-dependent wall_seconds column *)
          let fingerprint (i : Plan.phase_info) =
            (i.Plan.phase, i.Plan.parts, i.Plan.syntheses, i.Plan.dedup_hits,
             i.Plan.makespan)
          in
          Alcotest.(check bool) (label "phase accounting identical") true
            (List.map fingerprint seq.Plan.phase_infos
            = List.map fingerprint par.Plan.phase_infos);
          check_valid topo par)
        [ 2; 4 ])
    [ Pattern.All_gather; Pattern.All_reduce ]

(* A phase dedups its keys before it dispatches, so the parallel run
   synthesizes each distinct sub-problem once and counts every other part
   as a dedup hit, exactly as the sequential run does. *)
let test_parallel_obs_metrics () =
  let topo = torus3d () in
  let groups = groups_exn topo (Plan.Dim 0) in
  let counters domains =
    Obs.reset ();
    Obs.enable ();
    Fun.protect ~finally:Obs.disable (fun () ->
        ignore (Plan.synthesize ~domains topo (spec Pattern.All_reduce topo) ~groups);
        ( Obs.value (Obs.counter "groups.syntheses"),
          Obs.value (Obs.counter "groups.dedup_hits") ))
  in
  let _, seq_hits = counters 1 in
  let syntheses, hits = counters 4 in
  Alcotest.(check int) "groups.syntheses unchanged at d=4" 3 syntheses;
  Alcotest.(check int) "groups.dedup_hits as at d=1" seq_hits hits

let test_auto_dim_prefers_bottleneck () =
  (* The 25 GB/s scale-out dimension of the 2D switch and the 50 GB/s
     switch dimension of 3D-RFS must host the inter phase. *)
  Alcotest.(check (option int)) "switch-8x4" (Some 1) (Group.auto_dim (switch2d ()));
  Alcotest.(check (option int)) "rfs" (Some 2) (Group.auto_dim (rfs3d ()));
  (* Homogeneous torus: ties break toward more groups (largest dim). *)
  let t = Builders.torus [| 4; 8; 4 |] in
  Alcotest.(check (option int)) "torus ties to largest dim" (Some 1) (Group.auto_dim t);
  (* A size-2 ring has a single lane per node, half the bandwidth of its
     size-4 neighbours: it is the cut. *)
  let t2 = Builders.torus [| 2; 4; 2 |] in
  Alcotest.(check (option int)) "single-lane dim is the cut" (Some 0) (Group.auto_dim t2);
  Alcotest.(check (option int)) "no hierarchy" None (Group.auto_dim (Builders.dgx1 ()))

let test_invalid_partitions_rejected () =
  let topo = torus3d () in
  let expect_error what grouping =
    match Plan.decompose topo grouping with
    | Ok _ -> Alcotest.failf "%s: accepted an invalid partition" what
    | Error _ -> ()
  in
  let range a b = Array.init (b - a) (fun i -> a + i) in
  expect_error "unequal sizes" (Plan.Partition [ range 0 31; range 31 64 ]);
  expect_error "missing NPU" (Plan.Partition [ range 0 32; range 32 63 ]);
  expect_error "overlap"
    (Plan.Partition [ range 0 32; Array.append [| 0 |] (range 33 64) ]);
  (* {i, i+32} pairs: two z-planes apart, no direct link — disconnected. *)
  expect_error "disconnected group"
    (Plan.Partition (List.init 32 (fun i -> [| i; i + 32 |])));
  (* Aligned slabs, but one group's rank order rotated: every slice then
     mixes coordinates of different (y, z) lines and falls apart. *)
  let slab x = Array.init 16 (fun i -> (i * 4) + x) in
  let rot a = Array.init (Array.length a) (fun i -> a.((i + 1) mod Array.length a)) in
  expect_error "disconnected slice"
    (Plan.Partition [ slab 0; rot (slab 1); slab 2; slab 3 ]);
  Alcotest.(check bool) "the unrotated slabs are fine" true
    (Result.is_ok (Plan.decompose topo (Plan.Partition [ slab 0; slab 1; slab 2; slab 3 ])))

let test_flat_spec_mismatch_rejected () =
  let topo = torus3d () in
  let groups = groups_exn topo Plan.Auto in
  Alcotest.check_raises "npus mismatch"
    (Invalid_argument "Plan.synthesize: spec is for 8 NPUs, topology has 64")
    (fun () ->
      ignore
        (Plan.synthesize topo
           (Spec.make ~pattern:Pattern.All_gather ~npus:8 ())
           ~groups))

(* Property: any valid rewrite of a dimension partition — rotating every
   group's rank order in lockstep (relabels the slices) and permuting the
   group order (renumbers them) — still composes schedules that validate
   and replay, for every decomposable pattern. *)
let prop_random_partitions =
  let gen =
    QCheck.Gen.(
      let* fabric = int_range 0 (List.length fabrics - 1) in
      let* dim = int_range 0 2 in
      let* rot = int_range 0 15 in
      let* perm_seed = int_range 0 1000 in
      let* pat = int_range 0 (List.length patterns - 1) in
      return (fabric, dim, rot, perm_seed, pat))
  in
  QCheck.Test.make ~count:20 ~name:"random valid partitions compose correctly"
    (QCheck.make gen) (fun (fabric, dim, rot, perm_seed, pat) ->
      let _, build = List.nth fabrics fabric in
      let topo = build () in
      let dims = Option.get (Topology.hierarchy topo) in
      (* Pick a non-degenerate dimension near the random draw. *)
      let usable d =
        dims.(d).Topology.size >= 2
        && Topology.num_npus topo / dims.(d).Topology.size >= 2
      in
      let dim =
        let nd = Array.length dims in
        let rec find k = if usable ((dim + k) mod nd) then (dim + k) mod nd else find (k + 1) in
        find 0
      in
      let base = List.map (fun (g : Group.t) -> g.Group.members) (Group.of_dim topo ~dim) in
      let m = Array.length (List.hd base) in
      let rotate a = Array.init m (fun i -> a.((i + rot) mod m)) in
      let parts = List.map rotate base in
      let parts =
        (* Deterministic pseudo-random group reorder. *)
        let keyed = List.mapi (fun i p -> ((i * perm_seed) mod 97, i, p)) parts in
        List.map (fun (_, _, p) -> p) (List.sort compare keyed)
      in
      let groups =
        match Plan.decompose topo (Plan.Partition parts) with
        | Ok g -> g
        | Error e -> QCheck.Test.fail_reportf "rewritten partition invalid: %s" e
      in
      let pattern = List.nth patterns pat in
      let plan = Plan.synthesize topo (spec ~buffer_size:1e6 pattern topo) ~groups in
      check_valid topo plan;
      check_replays topo plan;
      true)

(* The induced sub-topology as [Group.extract] built it by scanning every
   link of the fabric: each link with both endpoints in [members], as
   (local src, local dst, global id), in canonical (src, dst, α, β, global
   id) order. The reference for extraction from the members' out-links. *)
let full_scan_links topo members =
  let local = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add local v i) members;
  Topology.edges topo
  |> List.filter_map (fun (e : Topology.edge) ->
         match (Hashtbl.find_opt local e.src, Hashtbl.find_opt local e.dst) with
         | Some s, Some d ->
           let alpha = Link.cost e.link 0. in
           let beta = Link.cost e.link 1. -. alpha in
           Some (s, d, alpha, beta, e)
         | _ -> None)
  |> List.sort (fun (s1, d1, a1, b1, (e1 : Topology.edge)) (s2, d2, a2, b2, e2) ->
         compare (s1, d1, a1, b1, e1.id) (s2, d2, a2, b2, e2.id))
  |> List.map (fun (s, d, _, _, (e : Topology.edge)) -> (s, d, e.id))

let group_links (g : Group.t) =
  List.init (Topology.num_links g.Group.topo) (fun id ->
      let e = Topology.edge g.Group.topo id in
      (e.Topology.src, e.Topology.dst, g.Group.link_map.(id)))

(* Fabrics with parallel links (dgx1's doubled NVLinks) and with one-way
   links (a unidirectional ring, an unwound switch, 3D-RFS). *)
let extract_fabrics = [| "dgx1"; "uniring:8"; "switch:16"; "rfs:2x4x8" |]

let prop_extract_matches_full_scan =
  let gen =
    QCheck.Gen.(
      let* fabric = int_bound (Array.length extract_fabrics - 1) in
      let* perm_seed = int in
      let* size_draw = int in
      return (fabric, perm_seed, size_draw))
  in
  QCheck.Test.make ~count:200 ~name:"extraction matches the full link scan"
    (QCheck.make gen) (fun (fabric, perm_seed, size_draw) ->
      let topo = Result.get_ok (Parse.parse_topology extract_fabrics.(fabric)) in
      let n = Topology.num_npus topo in
      (* A random subset of the NPUs, in random order. *)
      let rng = Random.State.make [| perm_seed |] in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let members = Array.sub order 0 (1 + (abs size_draw mod n)) in
      match Group.of_partition topo [ members ] with
      | [ g ] -> group_links g = full_scan_links topo members
      | _ -> false)

let () =
  Alcotest.run "groups"
    [
      ( "compose",
        List.map
          (fun fabric ->
            Alcotest.test_case (fst fabric) `Slow (test_fabric_matrix fabric))
          fabrics
        @ [
            Alcotest.test_case "reduce decomposes" `Quick test_reduce_decomposes;
            Alcotest.test_case "every torus dim decomposes" `Slow test_every_dim_decomposes;
          ] );
      ( "dedup",
        [
          Alcotest.test_case "one synthesis per fingerprint" `Quick test_dedup_counts;
          Alcotest.test_case "obs counters" `Quick test_obs_metrics;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parallel plan bit-identical" `Quick
            test_parallel_plan_bit_identical;
          Alcotest.test_case "single-flight obs counters" `Quick
            test_parallel_obs_metrics;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "auto dim" `Quick test_auto_dim_prefers_bottleneck;
          Alcotest.test_case "invalid partitions rejected" `Quick test_invalid_partitions_rejected;
          Alcotest.test_case "spec mismatch rejected" `Quick test_flat_spec_mismatch_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_partitions; prop_extract_matches_full_scan ] );
    ]
