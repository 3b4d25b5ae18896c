(* Extension experiment: All-to-All (the MoE dispatch pattern) synthesized
   by time-space routing (Tacos.Router) versus the Direct baseline, on
   topologies where blind pairwise exchange congests. Direct *is* the
   optimal All-to-All on FullyConnected — the reservation router must match
   it there and win where routing collides. *)

open Tacos_topology
open Tacos_collective
open Exp_common
module Table = Tacos_util.Table
module Units = Tacos_util.Units

let size = 64e6

let topologies () =
  let link = Link.of_bandwidth 50e9 in
  [
    ("FullyConnected-8", Builders.fully_connected ~link 8);
    ("2D Mesh 4x4", Builders.mesh ~link [| 4; 4 |]);
    ("2D Torus 4x4", Builders.torus ~link [| 4; 4 |]);
    ("DragonFly 4x5", Builders.dragonfly ~bw:(Units.gbps 400., Units.gbps 200.) ());
  ]

let run () =
  section "All-to-All — time-space routed synthesis vs Direct (64 MB)";
  let rows =
    List.map
      (fun (name, topo) ->
        let n = Topology.num_npus topo in
        let s =
          Spec.make ~chunks_per_npu:2 ~buffer_size:size ~pattern:Pattern.All_to_all
            ~npus:n ()
        in
        let result = Tacos.Router.synthesize topo s in
        (match Schedule.validate topo s result.Synth.schedule with
        | Ok () -> ()
        | Error e -> failwith ("invalid All-to-All schedule: " ^ e));
        let tacos = Tacos.Tuner.simulated_time topo result in
        let direct = Algo.collective_time Algo.Direct topo s in
        [
          name;
          string_of_int n;
          Units.time_pp direct;
          Units.time_pp tacos;
          Printf.sprintf "%.2fx" (direct /. tacos);
        ])
      (topologies ())
  in
  Table.print
    ~header:[ "Topology"; "NPUs"; "Direct"; "TACOS-A2A"; "speedup" ]
    rows;
  note "this pattern is outside the paper's Table III; see Router's";
  note "interface docs for why the matching loop cannot express it"
