(* Cross-module algebraic properties: transformation laws of the schedule
   IR, conservation laws of the simulator, and round-trip laws of the
   serialization layers — all over randomized inputs. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Program = Tacos_sim.Program
module Engine = Tacos_sim.Engine
module Rng = Tacos_util.Rng

let unit_link = Link.make ~alpha:1. ~beta:0.

(* A random valid schedule: synthesize All-Gather on a random torus. *)
let schedule_gen =
  QCheck.Gen.(
    let* a = int_range 2 4 in
    let* b = int_range 2 4 in
    let* seed = int_range 0 1000 in
    return (a, b, seed))

let make_schedule (a, b, seed) =
  let topo = Builders.torus ~link:unit_link [| a; b |] in
  let spec = Spec.make ~pattern:Pattern.All_gather ~npus:(a * b) () in
  (topo, spec, (Synth.synthesize ~seed topo spec).Synth.schedule)

let arb = QCheck.make schedule_gen

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

let prop_shift_additive =
  QCheck.Test.make ~name:"shift is additive in the makespan" ~count:30 arb
    (fun params ->
      let _, _, s = make_schedule params in
      close (Schedule.shift s 2.5).Schedule.makespan (s.Schedule.makespan +. 2.5))

let prop_reverse_involutive =
  QCheck.Test.make ~name:"reverse is an involution" ~count:30 arb (fun params ->
      let _, _, s = make_schedule params in
      let rr = Schedule.reverse (Schedule.reverse s) in
      close rr.Schedule.makespan s.Schedule.makespan
      && Schedule.num_sends rr = Schedule.num_sends s
      && List.for_all2
           (fun (x : Schedule.send) (y : Schedule.send) ->
             x.chunk = y.chunk && x.edge = y.edge && x.src = y.src && x.dst = y.dst
             && close x.start y.start)
           (Schedule.sends rr) (Schedule.sends s))

let prop_concat_additive =
  QCheck.Test.make ~name:"concat adds makespans" ~count:30 arb (fun params ->
      let _, _, s = make_schedule params in
      close (Schedule.concat s s).Schedule.makespan (2. *. s.Schedule.makespan))

(* The send sequence itself must survive, not only its size: replay serves
   tied sends in schedule order, and unit-link All-Gather has many ties. *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"JSON round-trips schedules" ~count:30 arb (fun params ->
      let topo, spec, s = make_schedule params in
      match Schedule.of_json (Schedule.to_json ~spec s) with
      | Error _ -> false
      | Ok back ->
        Schedule.sends back = Schedule.sends s
        && close back.Schedule.makespan s.Schedule.makespan
        && Schedule.num_sends back = Schedule.num_sends s
        && Schedule.validate topo spec back = Ok ())

let prop_engine_conserves_bytes =
  (* Every transfer's bytes appear on exactly hop-count links. *)
  QCheck.Test.make ~name:"simulator conserves routed bytes" ~count:20
    QCheck.(make Gen.(pair (int_range 3 6) (int_range 1 20)))
    (fun (n, transfers) ->
      let topo = Builders.ring ~link:(Link.make ~alpha:1. ~beta:1.) n in
      let rng = Rng.create (n + (31 * transfers)) in
      let b = Program.builder () in
      let expected = ref 0. in
      (* Every link is the same, so hop counts do not depend on the size
         the engine costs routes at. *)
      let routing = Routing.build_partial topo ~size:10. in
      for _ = 1 to transfers do
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        let size = float_of_int (1 + Rng.int rng 100) in
        ignore (Program.add b ~src ~dst ~size ());
        let hops = List.length (Option.get (Routing.path_opt routing ~src ~dst)) - 1 in
        expected := !expected +. (size *. float_of_int hops)
      done;
      let r = Engine.run topo (Program.build b) in
      close (Array.fold_left ( +. ) 0. r.Engine.link_bytes) !expected)

let prop_blocking_alpha_never_faster =
  QCheck.Test.make ~name:"blocking alpha is never faster" ~count:20
    QCheck.(make Gen.(int_range 4 10))
    (fun n ->
      let topo = Builders.ring ~link:(Link.of_bandwidth 50e9) n in
      let spec = Spec.make ~buffer_size:1e6 ~pattern:Pattern.All_reduce ~npus:n () in
      let program () = Tacos_baselines.Algo.(program ring) topo spec in
      let pipelined = (Engine.run topo (program ())).Engine.finish_time in
      let blocking =
        (Engine.run ~model:Engine.Blocking_alpha topo (program ())).Engine.finish_time
      in
      blocking >= pipelined -. 1e-12)

let prop_ag_sends_lower_bound =
  (* An All-Gather must deliver each of the k*n chunks to n-1 NPUs: exactly
     that many sends when every send is useful (TACOS never sends a chunk
     twice to the same NPU). *)
  QCheck.Test.make ~name:"All-Gather sends = chunks x (n-1)" ~count:30 arb
    (fun (a, b, seed) ->
      let topo = Builders.torus ~link:unit_link [| a; b |] in
      let n = a * b in
      let spec = Spec.make ~chunks_per_npu:2 ~pattern:Pattern.All_gather ~npus:n () in
      let r = Synth.synthesize ~seed topo spec in
      Schedule.num_sends r.Synth.schedule = 2 * n * (n - 1))

let prop_ten_roundtrip =
  QCheck.Test.make ~name:"TEN of_schedule/to_schedule round-trips" ~count:30 arb
    (fun params ->
      let topo, spec, s = make_schedule params in
      let ten = Tacos_ten.Ten.of_schedule topo ~span_cost:1. s in
      let back = Tacos_ten.Ten.to_schedule ten in
      close back.Schedule.makespan s.Schedule.makespan
      && Schedule.num_sends back = Schedule.num_sends s
      && Schedule.validate topo spec back = Ok ())

let prop_lowering_conserves_ops =
  QCheck.Test.make ~name:"lowering yields one send and one recv per transfer"
    ~count:30 arb (fun params ->
      let topo, _, s = make_schedule params in
      let programs = Lowering.npu_programs ~npus:(Topology.num_npus topo) s in
      let sends, recvs =
        Array.fold_left
          (fun (sends, recvs) ops ->
            List.fold_left
              (fun (sends, recvs) op ->
                match op with
                | Lowering.Send _ -> (sends + 1, recvs)
                | Lowering.Recv _ -> (sends, recvs + 1))
              (sends, recvs) ops)
          (0, 0) programs
      in
      sends = Schedule.num_sends s && recvs = Schedule.num_sends s)

let prop_registry_hits_are_stable =
  QCheck.Test.make ~name:"registry hits return the cached schedule" ~count:15 arb
    (fun (a, b, seed) ->
      let topo = Builders.torus ~link:unit_link [| a; b |] in
      let spec = Spec.make ~pattern:Pattern.All_gather ~npus:(a * b) () in
      let reg = Tacos.Registry.create () in
      let first, _ = Tacos.Registry.find_or_synthesize ~seed reg topo spec in
      let again, status = Tacos.Registry.find_or_synthesize ~seed:(seed + 1) reg topo spec in
      status = `Hit && close first.Synth.collective_time again.Synth.collective_time)

let () =
  Alcotest.run "properties"
    [
      ( "laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_shift_additive;
            prop_reverse_involutive;
            prop_concat_additive;
            prop_json_roundtrip;
            prop_engine_conserves_bytes;
            prop_blocking_alpha_never_faster;
            prop_ag_sends_lower_bound;
            prop_ten_roundtrip;
            prop_lowering_conserves_ops;
            prop_registry_hits_are_stable;
          ] );
    ]
