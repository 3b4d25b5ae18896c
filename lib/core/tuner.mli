(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Chunk-granularity auto-tuning.

    The chunks-per-NPU decomposition (§II-A) is TACOS' main quality knob:
    coarse chunks waste scarce links on heterogeneous fabrics, overly fine
    ones pay per-chunk latency (see the `ablation` bench). This tuner
    synthesizes at several candidate granularities, replays each schedule
    under the congestion-aware simulator, and keeps the fastest — what a
    deployment would run once per (topology, collective) pair and cache. *)

type choice = {
  chunks_per_npu : int;
  result : Synthesizer.result;
  simulated_time : float;
}

val sweep :
  ?seed:int ->
  ?domains:int ->
  ?candidates:int list ->
  ?synthesize:(seed:int -> Topology.t -> Spec.t -> Synthesizer.result) ->
  Topology.t ->
  pattern:Pattern.t ->
  size:float ->
  choice list
(** [sweep topo ~pattern ~size] evaluates every candidate granularity and
    returns all choices in candidate order — the raw material of a
    latency/bandwidth Pareto sweep ([Tacos_sketch.Strategy] builds its
    frontier on this). Same parameters and backend dispatch as {!tune}. *)

val tune :
  ?seed:int ->
  ?domains:int ->
  ?candidates:int list ->
  ?synthesize:(seed:int -> Topology.t -> Spec.t -> Synthesizer.result) ->
  Topology.t ->
  pattern:Pattern.t ->
  size:float ->
  choice
(** [tune topo ~pattern ~size] tries [candidates] (default
    [[1; 2; 4; 8; 16]]) and returns the best choice by simulated collective
    time. Patterns routed by {!Router} (All-to-All, Gather, Scatter) are
    tuned through it transparently. [domains] (default 1) is forwarded to
    the default {!Synthesizer} backend (parallel trials on the shared
    pool); a custom [synthesize] backend receives only [seed] and should
    capture its own parallelism settings. [synthesize] swaps the backend
    the candidates are synthesized with — the hierarchical group planner
    ([Tacos_groups.Plan]) plugs in here; the default is
    {!Router.synthesize_any}. *)

val best : choice list -> choice
(** The choice with the lowest simulated time, the earliest on a tie: the
    pick {!tune} makes from {!sweep}. Raises [Invalid_argument] on an
    empty list. *)

val simulated_time : Topology.t -> Synthesizer.result -> float
(** Replay a synthesis result under the simulator backend (the paper's
    measurement model). *)
