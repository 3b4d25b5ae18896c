(* Tests for the TACOS synthesizer: structural optimality on the classic
   topologies, validation of every supported pattern, agreement with the
   paper-literal reference implementation, golden digests of the
   multi-trial search, and randomized properties. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Reference = Tacos.Reference

let check_valid topo result =
  match Synth.verify topo result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e

let time = Alcotest.float 1e-9

let spec ?(chunks_per_npu = 1) ?(buffer_size = 1.) pattern npus =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus ()

let link_1s = Link.make ~alpha:1.0 ~beta:0.

(* All links cost exactly 1 second: makespans count TEN spans directly. *)
let unit_ring ?(bidirectional = true) n = Builders.ring ~link:link_1s ~bidirectional n
let unit_fc n = Builders.fully_connected ~link:link_1s n
let unit_mesh sizes = Builders.mesh ~link:link_1s sizes

let test_ag_unidirectional_ring () =
  (* Fig. 7: a unidirectional ring needs exactly n-1 spans for All-Gather. *)
  let n = 6 in
  let topo = unit_ring ~bidirectional:false n in
  let r = Synth.synthesize topo (spec Pattern.All_gather n) in
  check_valid topo r;
  Alcotest.check time "n-1 spans" (float_of_int (n - 1)) r.collective_time;
  Alcotest.(check int) "all links busy every span" (n * (n - 1)) (Schedule.num_sends r.schedule)

let test_ag_fully_connected_one_shot () =
  (* Fig. 10(a): FullyConnected satisfies All-Gather in a single span,
     recovering the Direct algorithm. *)
  let n = 5 in
  let topo = unit_fc n in
  let r = Synth.synthesize topo (spec Pattern.All_gather n) in
  check_valid topo r;
  Alcotest.check time "one span" 1.0 r.collective_time

let test_ag_bidirectional_ring () =
  (* A bidirectional ring halves the All-Gather span count to ceil((n-1)/2)
     in the best case; TACOS must find that optimum on small rings. *)
  let n = 8 in
  let topo = unit_ring n in
  let r = Synth.synthesize ~trials:4 topo (spec Pattern.All_gather n) in
  check_valid topo r;
  Alcotest.check time "ceil((n-1)/2) spans" 4.0 r.collective_time

let test_broadcast_ring () =
  (* Broadcast of a single chunk travels at most the eccentricity of the
     root: n/2 hops on an even bidirectional ring. *)
  let n = 10 in
  let topo = unit_ring n in
  let r = Synth.synthesize topo (spec (Pattern.Broadcast 0) n) in
  check_valid topo r;
  Alcotest.check time "eccentricity" 5.0 r.collective_time

let test_reduce_is_mirrored_broadcast () =
  let n = 7 in
  let topo = unit_ring n in
  let b = Synth.synthesize ~seed:7 topo (spec (Pattern.Broadcast 3) n) in
  let red = Synth.synthesize ~seed:7 topo (spec (Pattern.Reduce 3) n) in
  check_valid topo red;
  Alcotest.check time "same makespan as broadcast" b.collective_time red.collective_time

let test_reduce_scatter_validates () =
  let n = 6 in
  let topo = unit_mesh [| 3; 2 |] in
  let r = Synth.synthesize topo (spec Pattern.Reduce_scatter n) in
  check_valid topo r

let test_all_reduce_is_rs_plus_ag () =
  let n = 6 in
  let topo = unit_ring n in
  let r = Synth.synthesize ~seed:3 topo (spec Pattern.All_reduce n) in
  check_valid topo r;
  (match r.phases with
  | None -> Alcotest.fail "All-Reduce must expose its phases"
  | Some (rs, ag) ->
    Alcotest.check time "phases abut" rs.Schedule.makespan
      (List.fold_left
         (fun acc (s : Schedule.send) -> Float.min acc s.start)
         infinity (Schedule.sends ag));
    Alcotest.check time "total = rs + ag" r.collective_time ag.Schedule.makespan)

let test_all_reduce_ring_time () =
  (* k=1 chunk per NPU on a unidirectional unit ring: RS and AG each take
     n-1 spans. *)
  let n = 5 in
  let topo = unit_ring ~bidirectional:false n in
  let r = Synth.synthesize topo (spec Pattern.All_reduce n) in
  check_valid topo r;
  Alcotest.check time "2(n-1) spans" (float_of_int (2 * (n - 1))) r.collective_time

let test_chunks_per_npu () =
  let n = 4 in
  let topo = unit_ring ~bidirectional:false n in
  let s = spec ~chunks_per_npu:3 Pattern.All_gather n in
  let r = Synth.synthesize topo s in
  check_valid topo r;
  (* 12 chunks, each reaching 3 other NPUs = 36 sends. *)
  Alcotest.(check int) "sends" 36 (Schedule.num_sends r.schedule)

let test_heterogeneous_prefers_fast_links () =
  (* Two parallel paths 0->1: a fast link and a slow one. The single wanted
     chunk must ride the fast link. *)
  let topo = Topology.create 2 in
  let fast = Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:1. ~beta:0.) in
  let _slow = Topology.add_link topo ~src:0 ~dst:1 (Link.make ~alpha:10. ~beta:0.) in
  ignore (Topology.add_link topo ~src:1 ~dst:0 (Link.make ~alpha:1. ~beta:0.));
  let r = Synth.synthesize topo (spec (Pattern.Broadcast 0) 2) in
  check_valid topo r;
  Alcotest.check time "fast path" 1.0 r.collective_time;
  match Schedule.sends r.schedule with
  | [ s ] -> Alcotest.(check int) "fast link id" fast s.Schedule.edge
  | _ -> Alcotest.fail "expected exactly one send"

let test_heterogeneous_ring_makespan () =
  (* Unidirectional 3-ring with α-only links 1s, 2s, 3s. The 3s link 2->0
     must serialize two chunks (its own neighbor's and the one relayed
     around), so the optimum is 3s + 3s = 6s; TACOS must reach it. *)
  let topo = Topology.create 3 in
  let add s d a = ignore (Topology.add_link topo ~src:s ~dst:d (Link.make ~alpha:a ~beta:0.)) in
  add 0 1 1.;
  add 1 2 2.;
  add 2 0 3.;
  let r = Synth.synthesize topo (spec Pattern.All_gather 3) in
  check_valid topo r;
  Alcotest.check time "bottleneck-link serialization" 6.0 r.collective_time

let test_domains_deterministic () =
  (* Spreading trials over domains must not change the chosen schedule. *)
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_reduce 9 in
  let serial = Synth.synthesize ~seed:5 ~trials:4 ~domains:1 topo s in
  let parallel = Synth.synthesize ~seed:5 ~trials:4 ~domains:3 topo s in
  Alcotest.check time "same best makespan" serial.collective_time
    parallel.collective_time;
  Alcotest.(check int) "same send count"
    (Schedule.num_sends serial.schedule)
    (Schedule.num_sends parallel.schedule)

let same_sends label (a : Schedule.t) (b : Schedule.t) =
  Alcotest.(check bool) label true (Schedule.sends a = Schedule.sends b)

let same_phases label a b =
  match (a, b) with
  | Some (rs1, ag1), Some (rs2, ag2) ->
    same_sends (label ^ " (reduce-scatter)") rs1 rs2;
    same_sends (label ^ " (all-gather)") ag1 ag2
  | None, None -> ()
  | _ -> Alcotest.failf "%s: phase split present on one side only" label

let test_domains_bit_identical () =
  (* Not just the same makespan: the schedule and phase split must be
     bit-identical however many domains the trials spread over. *)
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_reduce 9 in
  let reference = Synth.synthesize ~seed:7 ~trials:5 ~domains:1 topo s in
  List.iter
    (fun k ->
      let par = Synth.synthesize ~seed:7 ~trials:5 ~domains:k topo s in
      same_sends (Printf.sprintf "sends at domains=%d" k) reference.Synth.schedule
        par.Synth.schedule;
      same_phases (Printf.sprintf "phases at domains=%d" k) reference.Synth.phases
        par.Synth.phases)
    [ 2; 4 ]

let test_goal_domains_bit_identical () =
  let topo = unit_mesh [| 3; 3 |] in
  let goal = Synth.goal_of_spec (spec Pattern.All_gather 9) in
  let plan ~domains =
    (fst (Synth.synthesize_goal_plan ~seed:11 ~trials:4 ~domains topo goal)).Synth.pull
  in
  let ref_sched = plan ~domains:1 in
  List.iter
    (fun k ->
      same_sends (Printf.sprintf "goal sends at domains=%d" k) ref_sched
        (plan ~domains:k))
    [ 2; 4 ]

let test_random_link_order_still_valid () =
  (* The §IV-F priority is a quality heuristic, never a correctness one. *)
  let topo = unit_mesh [| 3; 2 |] in
  let r =
    Synth.synthesize ~prefer_cheap_links:false topo (spec Pattern.All_reduce 6)
  in
  check_valid topo r

let test_tuner_picks_best_candidate () =
  (* On the heterogeneous 3D-RFS, finer chunks win (the ablation's finding);
     the tuner must not return a strictly dominated candidate. *)
  let topo = Builders.rfs3d ~bw:(200e9, 100e9, 50e9) (2, 2, 2) in
  let choice =
    Tacos.Tuner.tune ~candidates:[ 1; 8 ] topo ~pattern:Pattern.All_reduce ~size:64e6
  in
  let time_of k =
    let spec = Spec.make ~chunks_per_npu:k ~buffer_size:64e6 ~pattern:Pattern.All_reduce ~npus:8 () in
    Tacos.Tuner.simulated_time topo (Synth.synthesize topo spec)
  in
  Alcotest.(check bool) "no worse than either candidate" true
    (choice.Tacos.Tuner.simulated_time <= Float.min (time_of 1) (time_of 8) +. 1e-9)

let test_tuner_routes_router_patterns () =
  let topo = unit_mesh [| 2; 3 |] in
  let choice =
    Tacos.Tuner.tune ~candidates:[ 1; 2 ] topo ~pattern:Pattern.All_to_all ~size:36.
  in
  Alcotest.(check bool) "positive time" true (choice.Tacos.Tuner.simulated_time > 0.)

let test_trials_never_worse () =
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_gather 9 in
  let one = Synth.synthesize ~seed:1 ~trials:1 topo s in
  let many = Synth.synthesize ~seed:1 ~trials:8 topo s in
  Alcotest.(check bool) "more trials cannot hurt" true
    (many.collective_time <= one.collective_time +. 1e-9)

let test_reference_agrees_on_ring () =
  let n = 6 in
  let topo = unit_ring ~bidirectional:false n in
  let s = spec Pattern.All_gather n in
  let ten = Reference.synthesize topo s in
  let sched = Reference.schedule ten in
  (match Schedule.validate topo s sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reference schedule invalid: %s" e);
  let event = Synth.synthesize topo s in
  Alcotest.check time "same makespan" event.collective_time sched.Schedule.makespan

let test_reference_agrees_on_fc () =
  let n = 5 in
  let topo = unit_fc n in
  let s = spec Pattern.All_gather n in
  let ten = Reference.synthesize topo s in
  Alcotest.(check int) "one span" 1 (Tacos_ten.Ten.spans ten);
  let event = Synth.synthesize topo s in
  Alcotest.check time "event-driven matches" 1.0 event.collective_time

let test_stuck_on_disconnected () =
  (* Two disconnected pairs: the check fires before any matching work, and
     the message names the unsatisfiable postconditions. *)
  let topo = Topology.create 4 in
  Topology.add_bidir topo 0 1 link_1s;
  Topology.add_bidir topo 2 3 link_1s;
  let contains msg sub =
    let n = String.length msg and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub msg i k = sub || scan (i + 1)) in
    scan 0
  in
  match Synth.synthesize topo (spec Pattern.All_gather 4) with
  | _ -> Alcotest.fail "disconnected All-Gather must be Stuck"
  | exception Synth.Stuck msg ->
    (* 8 of the 12 postconditions cross the cut (each side wants the other
       side's 2 chunks on each of its 2 NPUs). *)
    Alcotest.(check bool) "names the count" true (contains msg "8 unreachable");
    Alcotest.(check bool) "lists sample pairs" true (contains msg "chunk")

let test_stuck_is_prompt () =
  (* The infeasibility check must fire without running the matching loop:
     even a large disconnected fabric fails fast. *)
  let topo = Topology.create 128 in
  for v = 0 to 62 do
    Topology.add_bidir topo v (v + 1) link_1s
  done;
  for v = 64 to 126 do
    Topology.add_bidir topo v (v + 1) link_1s
  done;
  let t0 = Unix.gettimeofday () in
  (match Synth.synthesize topo (spec Pattern.All_gather 128) with
  | _ -> Alcotest.fail "must be Stuck"
  | exception Synth.Stuck _ -> ());
  Alcotest.(check bool) "fails fast" true (Unix.gettimeofday () -. t0 < 1.0)

let test_weakly_connected_broadcast_ok () =
  (* Not strongly connected, but every postcondition is reachable from the
     root: Broadcast must still synthesize (the prompt check is precise,
     not a blanket strong-connectivity requirement). *)
  let topo = Topology.create 3 in
  ignore (Topology.add_link topo ~src:0 ~dst:1 link_1s);
  ignore (Topology.add_link topo ~src:1 ~dst:2 link_1s);
  Alcotest.(check bool) "not strongly connected" false
    (Topology.is_strongly_connected topo);
  let r = Synth.synthesize topo (spec (Pattern.Broadcast 0) 3) in
  check_valid topo r;
  Alcotest.check time "two hops" 2.0 r.collective_time

let test_unsupported_patterns () =
  let topo = unit_ring 4 in
  List.iter
    (fun pattern ->
      match Synth.synthesize topo (spec pattern 4) with
      | exception Synth.Unsupported _ -> ()
      | _ -> Alcotest.failf "%s should be unsupported" (Pattern.name pattern))
    [ Pattern.Gather 0; Pattern.Scatter 0 ]

let test_spec_mismatch_rejected () =
  let topo = unit_ring 4 in
  Alcotest.check_raises "npu mismatch"
    (Invalid_argument "Synthesizer.synthesize: spec NPU count does not match topology")
    (fun () -> ignore (Synth.synthesize topo (spec Pattern.All_gather 5)))

(* --- registry and failure injection -------------------------------------- *)

let test_registry_memory_cache () =
  let reg = Tacos.Registry.create () in
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_gather 9 in
  let first, status1 = Tacos.Registry.find_or_synthesize reg topo s in
  let second, status2 = Tacos.Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) "miss then hit" true (status1 = `Miss && status2 = `Hit);
  Alcotest.check time "identical schedule" first.collective_time second.collective_time;
  Alcotest.(check int) "one entry" 1 (Tacos.Registry.entries reg)

let test_registry_disk_roundtrip () =
  let dir = Filename.temp_file "tacos-reg" "" in
  Sys.remove dir;
  let topo = unit_ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg1 = Tacos.Registry.create ~dir () in
  let first, m = Tacos.Registry.find_or_synthesize reg1 topo s in
  Alcotest.(check bool) "first is a miss" true (m = `Miss);
  (* A fresh registry over the same directory finds it on disk. *)
  let reg2 = Tacos.Registry.create ~dir () in
  let second, h = Tacos.Registry.find_or_synthesize reg2 topo s in
  Alcotest.(check bool) "disk hit" true (h = `Hit);
  Alcotest.check time "same makespan" first.collective_time second.collective_time;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_registry_disk_preserves_provenance () =
  (* A disk hit restores the synthesis stats and the All-Reduce phase split
     instead of zero-time stats and no phases. *)
  let dir = Filename.temp_file "tacos-reg" "" in
  Sys.remove dir;
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_reduce 9 in
  let reg1 = Tacos.Registry.create ~dir () in
  let first, _ = Tacos.Registry.find_or_synthesize reg1 topo s in
  let reg2 = Tacos.Registry.create ~dir () in
  let second, h = Tacos.Registry.find_or_synthesize reg2 topo s in
  Alcotest.(check bool) "disk hit" true (h = `Hit);
  Alcotest.(check bool) "wall-clock restored" true
    (second.stats.wall_seconds = first.stats.wall_seconds
    && second.stats.wall_seconds > 0.);
  Alcotest.(check int) "rounds restored" first.stats.rounds second.stats.rounds;
  Alcotest.(check int) "matches restored" first.stats.matches second.stats.matches;
  (match (first.phases, second.phases) with
  | Some (rs1, ag1), Some (rs2, ag2) ->
    Alcotest.check time "reduce-scatter makespan" rs1.Schedule.makespan
      rs2.Schedule.makespan;
    Alcotest.(check int) "reduce-scatter sends" (Schedule.num_sends rs1)
      (Schedule.num_sends rs2);
    Alcotest.(check int) "all-gather sends" (Schedule.num_sends ag1)
      (Schedule.num_sends ag2);
    (match Schedule.validate_all_reduce topo s ~reduce_scatter:rs2 ~all_gather:ag2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "restored phases invalid: %s" e)
  | _ -> Alcotest.fail "phase split lost through the disk cache");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_registry_fingerprint_distinguishes () =
  let a = unit_ring 6 in
  let b = unit_ring ~bidirectional:false 6 in
  let c = unit_ring 6 in
  Alcotest.(check bool) "different structures differ" true
    (Tacos.Registry.fingerprint a <> Tacos.Registry.fingerprint b);
  Alcotest.(check string) "same structure matches" (Tacos.Registry.fingerprint a)
    (Tacos.Registry.fingerprint c)

let test_registry_fingerprint_full_width () =
  (* Regression for the 30-bit fingerprint: the registry used to identify a
     topology by [Hashtbl.hash] of its canonical edge buffer, truncated to
     30 bits — so two distinct fabrics could collide and the in-memory hit
     path would silently serve a schedule synthesized for the wrong one.
     Search out such a colliding pair and check the full-width digest keeps
     them apart (and the registry synthesizes both). *)
  let old_buffer a =
    (* The canonical edge buffer of a 2-NPU bidirectional pair with α = a,
       β = 0, exactly as [Registry.fingerprint] serializes it. *)
    Printf.sprintf "2;0>1:%.17g:%.17g;1>0:%.17g:%.17g" a 0. a 0.
  in
  let old_fingerprint a =
    Printf.sprintf "%08x" (Hashtbl.hash (old_buffer a) land 0xFFFFFFFF)
  in
  let seen = Hashtbl.create 65536 in
  let collision = ref None in
  let i = ref 1 in
  (* [Hashtbl.hash] has 30 output bits, so a birthday collision among a few
     hundred thousand candidates is a near-certainty (~41k expected). *)
  while !collision = None && !i <= 400_000 do
    let a = float_of_int !i in
    let h = old_fingerprint a in
    (match Hashtbl.find_opt seen h with
    | Some j when old_buffer j <> old_buffer a -> collision := Some (j, a)
    | _ -> Hashtbl.add seen h a);
    incr i
  done;
  match !collision with
  | None -> Alcotest.fail "no 30-bit collision found in 400k candidates"
  | Some (a1, a2) ->
    let topo_of a =
      let topo = Topology.create 2 in
      Topology.add_bidir topo 0 1 (Link.make ~alpha:a ~beta:0.);
      topo
    in
    let t1 = topo_of a1 and t2 = topo_of a2 in
    Alcotest.(check string) "old fingerprints collide (regression premise)"
      (old_fingerprint a1) (old_fingerprint a2);
    Alcotest.(check bool) "full-width fingerprints differ" true
      (Tacos.Registry.fingerprint t1 <> Tacos.Registry.fingerprint t2);
    let reg = Tacos.Registry.create () in
    let s = spec Pattern.All_gather 2 in
    let r1, m1 = Tacos.Registry.find_or_synthesize reg t1 s in
    let r2, m2 = Tacos.Registry.find_or_synthesize reg t2 s in
    Alcotest.(check bool) "both topologies synthesize" true
      (m1 = `Miss && m2 = `Miss);
    Alcotest.(check int) "two distinct entries" 2 (Tacos.Registry.entries reg);
    (* The schedules really are fabric-specific: α = a is the makespan. *)
    Alcotest.check time "first schedule timed for its fabric" a1 r1.Synth.collective_time;
    Alcotest.check time "second schedule timed for its fabric" a2 r2.Synth.collective_time

let test_registry_key_buffer_precision () =
  (* Regression for the [b%.0f] cache key: 0.4- and 0.5-byte buffers both
     printed "b0" and aliased onto one entry, so the second lookup returned
     a schedule timed for the wrong chunk size. *)
  let topo = Topology.create 2 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:0. ~beta:1.);
  let s1 = spec ~buffer_size:0.4 Pattern.All_gather 2 in
  let s2 = spec ~buffer_size:0.5 Pattern.All_gather 2 in
  Alcotest.(check bool) "spec keys differ" true
    (Tacos.Registry.spec_key s1 <> Tacos.Registry.spec_key s2);
  let reg = Tacos.Registry.create () in
  let r1, m1 = Tacos.Registry.find_or_synthesize reg topo s1 in
  let r2, m2 = Tacos.Registry.find_or_synthesize reg topo s2 in
  Alcotest.(check bool) "both sizes synthesize" true (m1 = `Miss && m2 = `Miss);
  Alcotest.(check int) "two entries" 2 (Tacos.Registry.entries reg);
  Alcotest.(check bool) "schedules timed for their own buffer size" true
    (r1.Synth.collective_time <> r2.Synth.collective_time)

let test_registry_nested_cache_dir () =
  (* Regression for the single non-recursive [Sys.mkdir]: a nested cache
     dir (--cache-dir out/cache/v1) used to raise [Sys_error]. *)
  let base = Filename.temp_file "tacos-reg" "" in
  Sys.remove base;
  let dir = Filename.concat (Filename.concat base "cache") "v1" in
  let topo = unit_ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg1 = Tacos.Registry.create ~dir () in
  let first, m = Tacos.Registry.find_or_synthesize reg1 topo s in
  Alcotest.(check bool) "first is a miss" true (m = `Miss);
  Alcotest.(check bool) "nested dir exists" true (Sys.is_directory dir);
  let reg2 = Tacos.Registry.create ~dir () in
  let second, h = Tacos.Registry.find_or_synthesize reg2 topo s in
  Alcotest.(check bool) "disk hit through nested dir" true (h = `Hit);
  Alcotest.check time "same makespan" first.Synth.collective_time
    second.Synth.collective_time;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir base

let test_registry_single_flight_stress () =
  (* Hammer one registry from 4 domains with identical and distinct specs:
     exactly one synthesis per distinct key, no table corruption, and every
     caller sees the same schedule for a given key. *)
  let reg = Tacos.Registry.create () in
  let topo = unit_mesh [| 3; 3 |] in
  ignore (Topology.edges topo);
  let specs =
    [|
      spec Pattern.All_gather 9;
      spec Pattern.Reduce_scatter 9;
      spec ~chunks_per_npu:2 Pattern.All_gather 9;
    |]
  in
  let iters = 6 in
  let worker w =
    let out = ref [] in
    for it = 0 to iters - 1 do
      for si = 0 to Array.length specs - 1 do
        (* Rotate the visiting order per domain and iteration so identical
           keys race from different domains in different interleavings. *)
        let si = (si + w + it) mod Array.length specs in
        let r, m = Tacos.Registry.find_or_synthesize reg topo specs.(si) in
        out := (si, r.Synth.collective_time, m) :: !out
      done
    done;
    !out
  in
  let spawned = Array.init 4 (fun w -> Domain.spawn (fun () -> worker w)) in
  let all = List.concat_map Domain.join (Array.to_list spawned) in
  Alcotest.(check int) "every lookup answered"
    (4 * iters * Array.length specs)
    (List.length all);
  for si = 0 to Array.length specs - 1 do
    let rows = List.filter (fun (i, _, _) -> i = si) all in
    let misses = List.filter (fun (_, _, m) -> m = `Miss) rows in
    Alcotest.(check int)
      (Printf.sprintf "exactly one synthesis for key %d" si)
      1 (List.length misses);
    match rows with
    | (_, t0, _) :: rest ->
      List.iter
        (fun (_, t, _) ->
          Alcotest.check time
            (Printf.sprintf "consistent schedule for key %d" si)
            t0 t)
        rest
    | [] -> Alcotest.fail "no lookups recorded"
  done;
  Alcotest.(check int) "one entry per distinct key" (Array.length specs)
    (Tacos.Registry.entries reg)

let test_resynthesis_after_link_failure () =
  (* Failure injection: kill a link, re-synthesize, still valid — and the
     degraded fabric is slower. *)
  let topo = unit_ring ~bidirectional:false 6 in
  let healthy = Synth.synthesize topo (spec Pattern.All_gather 6) in
  (* Removing any unidirectional ring link disconnects it; use the
     bidirectional ring and drop one direction of one link instead. *)
  let topo2 = unit_ring 6 in
  let victim = (List.hd (Topology.find_links topo2 ~src:0 ~dst:1)).Topology.id in
  let degraded = Topology.without_links topo2 [ victim ] in
  Alcotest.(check int) "one link fewer" 11 (Topology.num_links degraded);
  let r = Synth.synthesize degraded (spec Pattern.All_gather 6) in
  check_valid degraded r;
  let healthy2 = Synth.synthesize topo2 (spec Pattern.All_gather 6) in
  Alcotest.(check bool) "degradation costs time" true
    (r.collective_time >= healthy2.collective_time);
  ignore healthy

let test_without_links_rejects_bad_id () =
  let topo = unit_ring 4 in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Topology.without_links: unknown link id") (fun () ->
      ignore (Topology.without_links topo [ 99 ]))

(* --- randomized properties --------------------------------------------- *)

(* Random strongly-connected topology: a random ring through all nodes plus
   random extra links. *)
let random_topology_gen =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* extra = int_range 0 (n * 2) in
    let* seed = int_range 0 10000 in
    return (n, extra, seed))

let build_random (n, extra, seed) =
  let rng = Tacos_util.Rng.create seed in
  let topo = Topology.create n in
  let perm = Array.init n Fun.id in
  Tacos_util.Rng.shuffle_in_place rng perm;
  for i = 0 to n - 1 do
    ignore
      (Topology.add_link topo ~src:perm.(i) ~dst:perm.((i + 1) mod n) link_1s)
  done;
  let added = ref 0 and attempts = ref 0 in
  while !added < extra && !attempts < extra * 10 do
    incr attempts;
    let s = Tacos_util.Rng.int rng n and d = Tacos_util.Rng.int rng n in
    if s <> d then begin
      ignore (Topology.add_link topo ~src:s ~dst:d link_1s);
      incr added
    end
  done;
  topo

let prop_ag_always_valid =
  QCheck.Test.make ~name:"synthesized All-Gather always validates" ~count:60
    (QCheck.make random_topology_gen) (fun params ->
      let topo = build_random params in
      let n = Topology.num_npus topo in
      let s = spec Pattern.All_gather n in
      let r = Synth.synthesize ~seed:(Hashtbl.hash params) topo s in
      match Synth.verify topo r with Ok () -> true | Error _ -> false)

let prop_ar_always_valid =
  QCheck.Test.make ~name:"synthesized All-Reduce always validates" ~count:40
    (QCheck.make random_topology_gen) (fun params ->
      let topo = build_random params in
      let n = Topology.num_npus topo in
      let s = spec Pattern.All_reduce n in
      let r = Synth.synthesize ~seed:(Hashtbl.hash params) topo s in
      match Synth.verify topo r with Ok () -> true | Error _ -> false)

let prop_makespan_bounded =
  (* On a unit-cost strongly-connected digraph, All-Gather needs at most
     n * diameter <= n * (n-1) spans; TACOS must never exceed that. *)
  QCheck.Test.make ~name:"All-Gather makespan bounded by n*(n-1) unit spans"
    ~count:40 (QCheck.make random_topology_gen) (fun params ->
      let topo = build_random params in
      let n = Topology.num_npus topo in
      let r = Synth.synthesize topo (spec Pattern.All_gather n) in
      r.collective_time <= float_of_int (n * (n - 1)) +. 1e-9)

(* --- deadlines ----------------------------------------------------------- *)

let test_deadline_expired_raises () =
  let topo = unit_ring 6 in
  match
    Synth.synthesize
      ~deadline:(Tacos_util.Deadline.after_ms 0.)
      topo (spec Pattern.All_gather 6)
  with
  | _ -> Alcotest.fail "an already-expired deadline must raise"
  | exception Synth.Deadline_exceeded -> ()

let test_deadline_far_future_is_inert () =
  (* Threading a deadline that never fires must not perturb the search:
     the result is identical to the deadline-free synthesis. *)
  let topo = unit_mesh [| 3; 3 |] in
  let s = spec Pattern.All_gather 9 in
  let plain = Synth.synthesize ~seed:7 topo s in
  let timed =
    Synth.synthesize ~seed:7 ~deadline:(Tacos_util.Deadline.after_ms 3.6e6) topo s
  in
  Alcotest.check time "same makespan" plain.collective_time timed.collective_time;
  Alcotest.(check int) "same sends" (Schedule.num_sends plain.schedule)
    (Schedule.num_sends timed.schedule);
  Alcotest.(check int) "same rounds" plain.stats.rounds timed.stats.rounds

let prop_deadline_never_partial =
  (* Whatever the deadline — already expired, mid-synthesis tight, or
     effectively unbounded — synthesis either returns a schedule that
     verifies or raises [Deadline_exceeded]. Never a partial result. *)
  QCheck.Test.make ~name:"deadline: verified schedule or Deadline_exceeded"
    ~count:60
    (QCheck.make QCheck.Gen.(pair random_topology_gen (int_range 0 3)))
    (fun (params, tier) ->
      let topo = build_random params in
      let n = Topology.num_npus topo in
      let ms = match tier with 0 -> 0. | 1 -> 0.05 | 2 -> 1. | _ -> 60_000. in
      let deadline = Tacos_util.Deadline.after_ms ms in
      match
        Synth.synthesize ~deadline ~seed:(Hashtbl.hash params) topo
          (spec Pattern.All_gather n)
      with
      | r -> ( match Synth.verify topo r with Ok () -> true | Error _ -> false)
      | exception Synth.Deadline_exceeded -> true)

let prop_reduction_reversal_preserves_makespan =
  QCheck.Test.make ~name:"Reduce-Scatter mirrors All-Gather makespan" ~count:40
    (QCheck.make random_topology_gen) (fun params ->
      let topo = build_random params in
      let n = Topology.num_npus topo in
      let seed = Hashtbl.hash params in
      let ag =
        Synth.synthesize ~seed (Topology.reverse topo) (spec Pattern.All_gather n)
      in
      let rs = Synth.synthesize ~seed topo (spec Pattern.Reduce_scatter n) in
      Float.abs (ag.collective_time -. rs.collective_time) < 1e-9)

(* --- multi-trial goldens ------------------------------------------------ *)

(* Pinned outputs of the multi-trial search: which trial wins, the stats
   summed over every trial, and the feasibility messages. Floats are hashed
   exactly ([%h]), so a change to the per-trial seeds, the first-lowest
   argmin or the stat sums shows here, not only a change to the schedule. *)

let digest (t : Schedule.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%h\n" t.Schedule.makespan;
  List.iter
    (fun (s : Schedule.send) ->
      Printf.bprintf b "%d %d %d %d %h %h\n" s.chunk s.edge s.src s.dst s.start s.finish)
    (Schedule.sends t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_mesh () = Builders.mesh [| 3; 3 |]

(* Schedule, phase halves ("-" when none), rounds and matches. *)
let result_golden (r : Synth.result) =
  let phases =
    match r.phases with Some (rs, ag) -> [ digest rs; digest ag ] | None -> [ "-"; "-" ]
  in
  (digest r.schedule :: phases)
  @ [ Printf.sprintf "rounds=%d matches=%d" r.stats.rounds r.stats.matches ]

let trial_golden =
  [
    ( Pattern.All_reduce,
      [ "c4a62f8fcfd6e5d3ed56475f6888939e"; "d29a6da527e0ff8c9f705779136de53c";
        "230102c6e7690602059e3c896d5d707c"; "rounds=47 matches=720" ] );
    ( Pattern.All_gather,
      [ "64c45522df8fc49a466e1e2608eab74c"; "-"; "-"; "rounds=21 matches=360" ] );
    ( Pattern.Reduce_scatter,
      [ "a3b3809084d268c7cabafc46a19289c6"; "-"; "-"; "rounds=24 matches=360" ] );
    ( Pattern.Broadcast 4,
      [ "9ea9ebd6b67b4074de9429665592774a"; "-"; "-"; "rounds=10 matches=40" ] );
  ]

let test_trials_golden () =
  let topo = golden_mesh () in
  List.iter
    (fun (pattern, expected) ->
      let s = Spec.make ~buffer_size:9e6 ~pattern ~npus:9 () in
      List.iter
        (fun domains ->
          let r = Synth.synthesize ~seed:7 ~trials:5 ~domains topo s in
          Alcotest.(check (list string))
            (Printf.sprintf "%s at domains=%d" (Pattern.name pattern) domains)
            expected (result_golden r))
        [ 1; 3 ])
    trial_golden

(* A repair-style goal with live partial sums: chunk [c]'s partial at NPU [c]
   has absorbed [c] and [c + 1], every other NPU holds only its own
   contribution, and every NPU wants the reduced chunk. Two links are
   masked out. *)
let test_goal_plan_golden () =
  let topo = golden_mesh () in
  let n = 9 in
  let all = List.init n Fun.id in
  let every = List.concat_map (fun c -> List.map (fun v -> (v, c)) all) all in
  let goal =
    {
      Synth.num_chunks = n;
      chunk_size = 1e6;
      precondition = [];
      postcondition = every;
      contributors = every;
      partials =
        List.concat_map
          (fun c ->
            let next = (c + 1) mod n in
            (c, c, [ c; next ])
            :: List.filter_map
                 (fun v -> if v = c || v = next then None else Some (v, c, [ v ]))
                 all)
          all;
    }
  in
  let plan, stats =
    Synth.synthesize_goal_plan ~seed:3 ~trials:4 ~domains:2 ~dead:[ 0; 7 ] topo goal
  in
  Alcotest.(check (list string))
    "combining, pull, rounds and matches"
    [ "3437d55f1b5083d3165dba6c69b56a9a"; "1bea7dee74b62039a6710c6f07fc2cd2";
      "rounds=49 matches=564" ]
    [
      digest plan.Synth.combining;
      digest plan.Synth.pull;
      Printf.sprintf "rounds=%d matches=%d" stats.rounds stats.matches;
    ]

let stuck_message f =
  match f () with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Synth.Stuck msg -> msg

let test_stuck_golden () =
  (* Unmasked: a one-way chain 0 -> 1 -> 2. *)
  let chain = Topology.create 3 in
  ignore (Topology.add_link chain ~src:0 ~dst:1 link_1s);
  ignore (Topology.add_link chain ~src:1 ~dst:2 link_1s);
  Alcotest.(check string) "unmasked walk"
    "topology is not strongly connected: 3 unreachable postconditions (chunk 1 \
     -> NPU 0, chunk 2 -> NPU 0, chunk 2 -> NPU 1)"
    (stuck_message (fun () -> Synth.synthesize chain (spec Pattern.All_gather 3)));
  (* Masked: a sketch forbids every link into the centre of a 3x3 mesh. *)
  let topo = golden_mesh () in
  let forbid =
    List.filter_map
      (fun (e : Topology.edge) -> if e.dst = 4 then Some e.id else None)
      (Topology.edges topo)
  in
  Alcotest.(check string) "masked walk"
    "topology is not strongly connected: 8 unreachable postconditions (chunk 0 \
     -> NPU 4, chunk 1 -> NPU 4, chunk 2 -> NPU 4, chunk 3 -> NPU 4, chunk 5 -> \
     NPU 4, chunk 6 -> NPU 4, ...)"
    (stuck_message (fun () ->
         Synth.synthesize ~sketch:{ Synth.no_constraints with forbid } topo
           (spec Pattern.All_gather 9)))

(* --- paper figures, pinned to the bit ----------------------------------- *)

let link_50g = Link.of_bandwidth 50e9

(* Fig. 18 (bench fig18): a 256 MB All-Reduce, TACOS at 2 chunks per NPU
   (seed 42) against Ring. Per fabric: TACOS makespan, Ring finish time,
   then their average utilizations. *)
let fig18_golden =
  [
    ( "3D Torus 5x5x5",
      Builders.torus ~link:link_50g [| 5; 5; 5 |],
      (0.0017623199999999989, 0.015353520000017724),
      (0.9841269841269781, 0.13673323989113273) );
    ( "2D Mesh 10x10",
      Builders.mesh ~link:link_50g [| 10; 10 |],
      (0.005167799999999995, 0.01578810000001775),
      (0.5555555555555558, 0.3531571246698506) );
    ( "3D HC 5x5x5",
      Builders.mesh ~link:link_50g [| 5; 5; 5 |],
      (0.003482680000000005, 0.02106446000002444),
      (0.6224899598393564, 0.19932497992669207) );
  ]

let test_fig18_golden () =
  List.iter
    (fun (name, topo, (tacos_time, ring_time), (tacos_util, ring_util)) ->
      let n = Topology.num_npus topo in
      let size = 256e6 in
      let tacos =
        Synth.synthesize ~seed:42 topo
          (spec ~chunks_per_npu:2 ~buffer_size:size Pattern.All_reduce n)
      in
      let ring =
        Tacos_baselines.Algo.simulate Tacos_baselines.Algo.ring topo
          (spec ~buffer_size:size Pattern.All_reduce n)
      in
      let check what = Alcotest.check Pin.exact (name ^ ": " ^ what) in
      check "TACOS makespan" tacos_time tacos.collective_time;
      check "Ring makespan" ring_time ring.Tacos_sim.Engine.finish_time;
      check "TACOS utilization" tacos_util (Schedule.average_utilization topo tacos.schedule);
      check "Ring utilization" ring_util (Tacos_sim.Engine.average_utilization topo ring))
    fig18_golden

(* Fig. 19 at small scale (bench fig19): a 1 GB All-Reduce per fabric, its
   makespan and synthesis rounds. *)
let fig19_golden =
  [
    ("2D Mesh", [| 4; 4 |], 0.020008, 16);
    ("2D Mesh", [| 8; 8 |], 0.020032000000000008, 64);
    ("2D Mesh", [| 12; 12 |], 0.020071999999999975, 144);
    ("3D HC", [| 2; 2; 2 |], 0.015003, 6);
    ("3D HC", [| 3; 3; 3 |], 0.013342333333333331, 18);
    ("3D HC", [| 4; 4; 4 |], 0.013145999999999998, 42);
  ]

let test_fig19_golden () =
  List.iter
    (fun (name, dims, makespan, rounds) ->
      let topo = Builders.mesh ~link:link_50g dims in
      let n = Topology.num_npus topo in
      let r = Synth.synthesize topo (spec ~buffer_size:1e9 Pattern.All_reduce n) in
      let label what = Printf.sprintf "%s %d NPUs: %s" name n what in
      Alcotest.check Pin.exact (label "makespan") makespan r.collective_time;
      Alcotest.(check int) (label "rounds") rounds r.stats.rounds)
    fig19_golden

let () =
  Alcotest.run "synthesizer"
    [
      ( "golden",
        [
          Alcotest.test_case "multi-trial synthesize" `Quick test_trials_golden;
          Alcotest.test_case "multi-trial goal plan" `Quick test_goal_plan_golden;
          Alcotest.test_case "Stuck messages" `Quick test_stuck_golden;
          Alcotest.test_case "Fig. 18 makespans and utilizations" `Quick
            test_fig18_golden;
          Alcotest.test_case "Fig. 19 makespans and rounds" `Quick test_fig19_golden;
        ] );
      ( "structure",
        [
          Alcotest.test_case "All-Gather on unidirectional ring" `Quick
            test_ag_unidirectional_ring;
          Alcotest.test_case "All-Gather on FullyConnected is one-shot" `Quick
            test_ag_fully_connected_one_shot;
          Alcotest.test_case "All-Gather on bidirectional ring" `Quick
            test_ag_bidirectional_ring;
          Alcotest.test_case "Broadcast travels the eccentricity" `Quick
            test_broadcast_ring;
          Alcotest.test_case "Reduce mirrors Broadcast" `Quick
            test_reduce_is_mirrored_broadcast;
          Alcotest.test_case "Reduce-Scatter validates" `Quick
            test_reduce_scatter_validates;
          Alcotest.test_case "All-Reduce = RS then AG" `Quick
            test_all_reduce_is_rs_plus_ag;
          Alcotest.test_case "All-Reduce ring time" `Quick test_all_reduce_ring_time;
          Alcotest.test_case "multiple chunks per NPU" `Quick test_chunks_per_npu;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "prefers lower-cost links" `Quick
            test_heterogeneous_prefers_fast_links;
          Alcotest.test_case "heterogeneous ring makespan" `Quick
            test_heterogeneous_ring_makespan;
        ] );
      ( "search",
        [
          Alcotest.test_case "more trials never worse" `Quick test_trials_never_worse;
          Alcotest.test_case "tuner picks the best candidate" `Quick
            test_tuner_picks_best_candidate;
          Alcotest.test_case "tuner covers routed patterns" `Quick
            test_tuner_routes_router_patterns;
          Alcotest.test_case "domains deterministic" `Quick test_domains_deterministic;
          Alcotest.test_case "parallel trials bit-identical" `Quick
            test_domains_bit_identical;
          Alcotest.test_case "parallel goal trials bit-identical" `Quick
            test_goal_domains_bit_identical;
          Alcotest.test_case "random link order still valid" `Quick
            test_random_link_order_still_valid;
          Alcotest.test_case "reference agrees on ring" `Quick
            test_reference_agrees_on_ring;
          Alcotest.test_case "reference agrees on FC" `Quick test_reference_agrees_on_fc;
        ] );
      ( "registry-and-failures",
        [
          Alcotest.test_case "in-memory cache" `Quick test_registry_memory_cache;
          Alcotest.test_case "disk round trip" `Quick test_registry_disk_roundtrip;
          Alcotest.test_case "disk preserves provenance" `Quick
            test_registry_disk_preserves_provenance;
          Alcotest.test_case "fingerprints" `Quick test_registry_fingerprint_distinguishes;
          Alcotest.test_case "full-width fingerprint (30-bit collision)" `Quick
            test_registry_fingerprint_full_width;
          Alcotest.test_case "key keeps buffer precision" `Quick
            test_registry_key_buffer_precision;
          Alcotest.test_case "nested cache dir" `Quick test_registry_nested_cache_dir;
          Alcotest.test_case "single-flight under 4 domains" `Quick
            test_registry_single_flight_stress;
          Alcotest.test_case "re-synthesis after link failure" `Quick
            test_resynthesis_after_link_failure;
          Alcotest.test_case "without_links bad id" `Quick
            test_without_links_rejects_bad_id;
        ] );
      ( "errors",
        [
          Alcotest.test_case "stuck on disconnected topology" `Quick
            test_stuck_on_disconnected;
          Alcotest.test_case "stuck check is prompt" `Quick test_stuck_is_prompt;
          Alcotest.test_case "weakly connected broadcast still works" `Quick
            test_weakly_connected_broadcast_ok;
          Alcotest.test_case "gather/scatter unsupported" `Quick
            test_unsupported_patterns;
          Alcotest.test_case "spec/topology mismatch" `Quick test_spec_mismatch_rejected;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired deadline raises" `Quick
            test_deadline_expired_raises;
          Alcotest.test_case "far-future deadline is inert" `Quick
            test_deadline_far_future_is_inert;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ag_always_valid;
            prop_ar_always_valid;
            prop_makespan_bounded;
            prop_reduction_reversal_preserves_makespan;
            prop_deadline_never_partial;
          ] );
    ]
