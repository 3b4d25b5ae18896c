(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

type npu = { peak_flops : float; compute_efficiency : float }

(* 120 TFLOPS peak at 50% sustained efficiency — an A100-class NPU. *)
let default_npu = { peak_flops = 120e12; compute_efficiency = 0.5 }

type backend = { backend_name : string; collective : Pattern.t -> float -> float }

let all_reduce b size = b.collective Pattern.All_reduce size

let spec_for ?(chunks_per_npu = 1) topo pattern size =
  Spec.make ~chunks_per_npu ~buffer_size:size ~pattern
    ~npus:(Topology.num_npus topo) ()

let ring_backend topo =
  {
    backend_name = "Ring";
    collective =
      (fun pattern size ->
        Tacos_baselines.Algo.(collective_time ring) topo (spec_for topo pattern size));
  }

let themis_backend ?(chunks = 64) topo =
  {
    backend_name = Printf.sprintf "Themis(%d)" chunks;
    collective =
      (fun pattern size ->
        Tacos_baselines.Algo.(collective_time (Themis { chunks }))
          topo (spec_for topo pattern size));
  }

let tacos_backend ?(seed = 42) ?(chunks_per_npu = 4) topo =
  {
    backend_name = "TACOS";
    collective =
      (fun pattern size ->
        let spec = spec_for ~chunks_per_npu topo pattern size in
        (* Evaluated under the same simulator backend as the baselines. *)
        Tacos.Tuner.simulated_time topo (Tacos.Synthesizer.synthesize ~seed topo spec));
  }

let ideal_backend topo =
  {
    backend_name = "Ideal";
    collective =
      (fun pattern size ->
        match pattern with
        | Pattern.All_reduce -> Ideal.all_reduce_time topo ~size
        | Pattern.All_gather -> Ideal.all_gather_time topo ~size
        | Pattern.Reduce_scatter -> Ideal.reduce_scatter_time topo ~size
        | Pattern.Broadcast _ | Pattern.Reduce _ | Pattern.Gather _ | Pattern.Scatter _
        | Pattern.All_to_all ->
          invalid_arg "Training.ideal_backend: unsupported pattern");
  }

type breakdown = {
  fwd_compute : float;
  bwd_compute : float;
  input_grad_comm : float;
  weight_grad_comm : float;
}

let total b = b.fwd_compute +. b.bwd_compute +. b.input_grad_comm +. b.weight_grad_comm
let comm b = b.input_grad_comm +. b.weight_grad_comm

let compute_time ?(npu = default_npu) model =
  let sustained = npu.peak_flops *. npu.compute_efficiency in
  (Models.total_fwd_flops model /. sustained, Models.total_bwd_flops model /. sustained)

let iteration ?(npu = default_npu) model backend =
  let fwd_compute, bwd_compute = compute_time ~npu model in
  let comm_time bytes = if bytes <= 0. then 0. else all_reduce backend bytes in
  {
    fwd_compute;
    bwd_compute;
    input_grad_comm = comm_time (Models.total_input_grad_bytes model);
    weight_grad_comm = comm_time (Models.total_weight_grad_bytes model);
  }
