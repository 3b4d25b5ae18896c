(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Theoretically ideal collective performance (§V-A).

    The paper's bound combines the bottleneck serialization delay — every NPU
    must ingest [2(n-1)/n × size] bytes for All-Reduce ([(n-1)/n × size] for
    All-Gather / Reduce-Scatter) through its incoming links — with the
    topology diameter as the minimum latency for the farthest pair:

    {v ideal_time = size * 2(n-1)/n / min_NPU(BW_in) + diameter v} *)

val all_reduce_time : Topology.t -> size:float -> float
val all_gather_time : Topology.t -> size:float -> float
val reduce_scatter_time : Topology.t -> size:float -> float

val bandwidth : size:float -> time:float -> float
(** Collective bandwidth = collective size ÷ collective time (the paper's
    reporting metric). Only tests call it: test_collective's "efficiency and
    bandwidth". *)

val efficiency : ideal:float -> measured:float -> float
(** [ideal /. measured] for times (equivalently measured/ideal for
    bandwidths); 1.0 means the theoretical optimum. Only tests call it:
    test_collective's "efficiency and bandwidth". *)
