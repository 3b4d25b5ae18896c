(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Data-parallel training-iteration model (§VI-D).

    For data-parallel training, communication is exposed at the end of each
    iteration [18]: one All-Reduce over the weight gradients (plus, for the
    hybrid-parallel LLMs, the exposed input-gradient traffic). An iteration
    therefore decomposes as

    {v iteration = fwd_compute + bwd_compute
                 + AR(input_grad_bytes) + AR(weight_grad_bytes) v}

    where the collective times come from a pluggable backend — Ring, Themis,
    a freshly synthesized TACOS algorithm, or the ideal bound. Compute terms
    are identical across backends, so the relative end-to-end shape
    (Figs. 20-21) is carried entirely by the communication model.

    Other parallelization strategies (Table III) are modeled in
    {!Parallelism}, on top of the same backends. *)

type npu = { peak_flops : float; compute_efficiency : float }

(** Collective time as a function of pattern and size on a fixed topology. *)
type backend = { backend_name : string; collective : Pattern.t -> float -> float }

val all_reduce : backend -> float -> float

val ring_backend : Topology.t -> backend
val themis_backend : ?chunks:int -> Topology.t -> backend

val tacos_backend : ?seed:int -> ?chunks_per_npu:int -> Topology.t -> backend
(** Synthesizes a fresh TACOS algorithm for each requested collective and
    evaluates it under the congestion-aware simulator. *)

val ideal_backend : Topology.t -> backend

type breakdown = {
  fwd_compute : float;
  bwd_compute : float;
  input_grad_comm : float;
  weight_grad_comm : float;
}

val total : breakdown -> float
val comm : breakdown -> float

val iteration : ?npu:npu -> Models.t -> backend -> breakdown
(** One data-parallel training iteration of the model with gradient
    All-Reduces served by the backend. *)

val compute_time : ?npu:npu -> Models.t -> float * float
(** (forward, backward) compute seconds on one NPU. *)
