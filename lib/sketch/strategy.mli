(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** SCCL-style latency/bandwidth strategy sweeps.

    One synthesized schedule per chunk granularity is a single point in a
    latency/bandwidth tradeoff: coarse chunks mean few matching steps (low
    latency, cheap synthesis) but poor link utilization; fine chunks fill
    heterogeneous fabrics at the price of more steps and synthesis work.
    This module runs the tuner's candidate sweep — optionally under a
    communication {!Sketch} — replays every point under the congestion-aware
    simulator, and reports the non-dominated Pareto frontier, in the spirit
    of SCCL's [solve_all_latency_bandwidth_tradeoffs].

    Dominance is computed over the {e deterministic} triple (chunks per
    NPU, steps, simulated time), where [steps] — the schedule's count of
    distinct send-start waves — is the machine-stable stand-in for
    synthesis effort and per-chunk latency. Wall-clock synthesis seconds
    are reported on every point but excluded from dominance, so the
    frontier is reproducible and can be pinned by [bench regress]. *)

type point = {
  chunks_per_npu : int;
  steps : int;  (** distinct send-start waves of the schedule *)
  sends : int;
  collective_time : float;  (** α-β makespan of the schedule *)
  simulated_time : float;  (** congestion-aware replay *)
  synthesis_seconds : float;
      (** synthesis wall clock — informative only, never in dominance *)
}

type outcome = {
  points : point list;  (** every evaluated candidate, in candidate order *)
  frontier : point list;
      (** the non-dominated points, ascending chunks per NPU *)
  dominated : (point * point) list;
      (** each dominated point, paired with a point that dominates it *)
}

val dominates : point -> point -> bool
(** [dominates a b]: [a] is no worse than [b] on all of (chunks per NPU,
    steps, simulated time) and strictly better on at least one. Outside this
    module only tests call it: test_sketch's "dgx1 frontier". *)

val sweep :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?candidates:int list ->
  ?sketch:Sketch.t ->
  Topology.t ->
  pattern:Pattern.t ->
  size:float ->
  outcome
(** Evaluate every candidate granularity (default [[1; 2; 4; 8; 16]],
    [Tacos.Tuner]'s set) and split the points into frontier and dominated.
    With [sketch], every candidate is synthesized under the compiled
    sketch (so {!Sketch.Infeasible} propagates before any matching work)
    and routed patterns are rejected; without one, routed patterns go
    through the router as in the tuner. [trials] and [domains] are
    forwarded to each synthesis. *)

val point_fields : point -> (string * Tacos_util.Json.t) list
(** The point as JSON fields — shared by the CLI's [--json] output and the
    bench harness rows, so the two never drift. *)

val to_json : outcome -> string
