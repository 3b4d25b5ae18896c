(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

type choice = {
  chunks_per_npu : int;
  result : Synthesizer.result;
  simulated_time : float;
}

let replay ?faults topo (result : Synthesizer.result) =
  Tacos_sim.Engine.run ?faults topo
    (Tacos_sim.Program.of_schedule
       ~chunk_size:(Spec.chunk_size result.Synthesizer.spec)
       result.Synthesizer.schedule)

let simulated_time topo result = (replay topo result).Tacos_sim.Engine.finish_time

let sweep ?(seed = 42) ?(domains = 1) ?(candidates = [ 1; 2; 4; 8; 16 ])
    ?synthesize topo ~pattern ~size =
  if candidates = [] then invalid_arg "Tuner.tune: no candidates";
  if domains <= 0 then invalid_arg "Tuner.sweep: domains must be positive";
  let npus = Topology.num_npus topo in
  let synthesize =
    match synthesize with
    | Some f -> f
    | None -> fun ~seed topo spec -> Router.synthesize_any ~seed ~domains topo spec
  in
  List.map
    (fun chunks_per_npu ->
      let spec = Spec.make ~chunks_per_npu ~buffer_size:size ~pattern ~npus () in
      let result = synthesize ~seed topo spec in
      { chunks_per_npu; result; simulated_time = simulated_time topo result })
    candidates

let best = function
  | [] -> invalid_arg "Tuner.best: no choices"
  | first :: rest ->
    (* Strict [<] keeps ties on the earliest candidate. *)
    List.fold_left
      (fun best c -> if c.simulated_time < best.simulated_time then c else best)
      first rest

let tune ?seed ?domains ?candidates ?synthesize topo ~pattern ~size =
  best (sweep ?seed ?domains ?candidates ?synthesize topo ~pattern ~size)
