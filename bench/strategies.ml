(* Extension experiment (Table III made runnable): the collective patterns
   each parallelization strategy exposes, and how much the collective
   algorithm matters per strategy. FSDP/ZeRO lean on the many-to-many
   Reduce-Scatter / All-Gather patterns where one-to-many tree synthesizers
   are weakest (§VII-C) — TACOS handles them natively. *)

open Tacos_topology
open Tacos_collective
open Exp_common
open Tacos_workload
module Table = Tacos_util.Table
module Strategy = Tacos_sketch.Strategy

(* SCCL-style latency/bandwidth sweep (Tacos_sketch.Strategy): every chunk
   granularity is one point; the non-dominated frontier over the
   deterministic (chunks, steps, simulated time) triple is what a
   deployment would pick from. Every recorded field but the synthesis wall
   clock is machine-stable, and test_sketch's "dgx1 frontier" pins both
   sweeps' points to the bit. *)
let pareto () =
  section "Pareto — latency/bandwidth tradeoffs per chunk granularity";
  let size = 64e6 in
  let configs =
    [ ("dgx1", Builders.dgx1 ()); ("torus:4x4", Builders.torus [| 4; 4 |]) ]
  in
  List.iter
    (fun (name, topo) ->
      let outcome =
        Strategy.sweep ~seed:42 topo ~pattern:Pattern.All_reduce ~size
      in
      let on_frontier p = List.memq p outcome.Strategy.frontier in
      Printf.printf "\n%s, All-Reduce %s:\n" name (Units.bytes_pp size);
      Table.print
        ~header:
          [ "chunks/NPU"; "steps"; "sends"; "simulated"; "frontier" ]
        (List.map
           (fun (p : Strategy.point) ->
             [
               string_of_int p.Strategy.chunks_per_npu;
               string_of_int p.Strategy.steps;
               string_of_int p.Strategy.sends;
               Units.time_pp p.Strategy.simulated_time;
               (if on_frontier p then "*" else "dominated");
             ])
           outcome.Strategy.points);
      List.iter
        (fun (p : Strategy.point) ->
          record ~exp:"pareto"
            (("topology", Json.String name)
            :: ("pattern", Json.String "all-reduce")
            :: ("buffer_bytes", Json.Number size)
            :: Strategy.point_fields p
            @ [
                ("on_frontier", Json.Bool (on_frontier p));
                ( "frontier_size",
                  Json.Number
                    (float_of_int (List.length outcome.Strategy.frontier)) );
              ]))
        outcome.Strategy.points)
    configs;
  note "frontier/dominated split is over deterministic fields only";
  note "(chunks, steps, simulated time) — synthesis wall clock is reported";
  note "per point but never part of dominance";
  flush_bench ~exp:"pareto"

let run () =
  section "Strategies — Table III parallelizations on a 64-NPU 3D-RFS (Turing-NLG)";
  let topo =
    Builders.rfs3d
      ~bw:(Tacos_util.Units.gbps 200., Tacos_util.Units.gbps 100., Tacos_util.Units.gbps 50.)
      (2, 4, 8)
  in
  let model = Models.turing_nlg in
  (* Which patterns each strategy needs (the literal Table III). *)
  Table.print
    ~header:[ "Strategy"; "Reduce-Scatter"; "All-Gather"; "All-Reduce" ]
    (List.map
       (fun s ->
         let has p = if List.mem p (Parallelism.patterns s) then "x" else "" in
         [
           Parallelism.name s;
           has Pattern.Reduce_scatter;
           has Pattern.All_gather;
           has Pattern.All_reduce;
         ])
       Parallelism.all);
  (* Iteration time per strategy under each backend, normalized to TACOS. *)
  let backends =
    [
      Training.ring_backend topo;
      Training.themis_backend ~chunks:16 topo;
      Training.tacos_backend ~chunks_per_npu:8 topo;
      Training.ideal_backend topo;
    ]
  in
  Printf.printf "\nIteration time by strategy (normalized to TACOS per row):\n";
  let rows =
    List.map
      (fun strategy ->
        let costs =
          List.map (fun b -> Parallelism.iteration model strategy b) backends
        in
        let tacos_total = Parallelism.total (List.nth costs 2) in
        Parallelism.name strategy
        :: List.map
             (fun c -> Printf.sprintf "%.2f" (Parallelism.total c /. tacos_total))
             costs)
      Parallelism.all
  in
  Table.print ~header:[ "Strategy"; "Ring"; "Themis"; "TACOS"; "Ideal" ] rows;
  note "sharded strategies (FSDP/ZeRO/Hybrid) move 2-3x the bytes of plain";
  note "DP here, all of it through many-to-many collectives";
  pareto ()
