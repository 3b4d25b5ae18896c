(* A heterogeneous, asymmetric cluster — the scenario that motivates TACOS.

   DragonFly glues fully-connected groups (400 GB/s local links) together
   with sparse 200 GB/s global links hosted on a few members per group. No
   predefined collective algorithm is native to this shape: Ring ignores the
   rich local connectivity, Direct tramples the sparse global links. TACOS
   synthesizes a schedule for exactly this network.

     dune exec examples/dragonfly_synthesis.exe *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Algo = Tacos_baselines.Algo
module Units = Tacos_util.Units
module Table = Tacos_util.Table

let size = 256e6

let () =
  let topo = Builders.dragonfly ~bw:(Units.gbps 400., Units.gbps 200.) () in
  Format.printf "topology: %a@." Topology.pp topo;
  Printf.printf "min ingress bandwidth: %s; diameter %s\n"
    (Units.bandwidth_pp (Topology.min_ingress_bandwidth topo))
    (Units.time_pp (Topology.diameter_latency topo));

  let spec k =
    Spec.make ~chunks_per_npu:k ~buffer_size:size ~pattern:Pattern.All_reduce
      ~npus:(Topology.num_npus topo) ()
  in

  (* Baselines run through the congestion-aware simulator. *)
  let baseline name algo =
    (name, Algo.collective_time algo topo (spec 1))
  in
  let ring = baseline "Ring" Algo.ring in
  let direct = baseline "Direct" Algo.Direct in
  let taccl = baseline "TACCL-like" Algo.Taccl_like in

  (* TACOS: synthesize, validate, then evaluate under the same simulator. *)
  let result = Synth.synthesize ~seed:3 ~trials:4 topo (spec 4) in
  (match Synth.verify topo result with
  | Ok () -> ()
  | Error e -> failwith ("invalid schedule: " ^ e));
  let tacos = ("TACOS", Tacos.Tuner.simulated_time topo result) in
  let ideal = ("Ideal bound", Ideal.all_reduce_time topo ~size) in

  Printf.printf "\n256 MB All-Reduce on DragonFly 4x5:\n";
  Table.print
    ~header:[ "Algorithm"; "Time"; "Bandwidth"; "vs ideal" ]
    (List.map
       (fun (name, t) ->
         [
           name;
           Units.time_pp t;
           Units.bandwidth_pp (size /. t);
           Table.cell_percent (snd ideal /. t);
         ])
       [ ring; direct; taccl; tacos; ideal ]);
  Printf.printf "TACOS speedup over the best basic algorithm: %.2fx\n"
    (Float.min (snd ring) (snd direct) /. snd tacos)
