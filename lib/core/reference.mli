(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
open Tacos_ten

(** Literal transcription of the paper's Algorithms 1 and 2 for homogeneous
    topologies: the TEN is materialized span by span, and at each span the
    shuffled unsatisfied postconditions are matched one at a time, choosing a
    random candidate source among the destination's idle incoming links whose
    source already holds the chunk.

    This exists to cross-check {!Synthesizer} (its event-driven matcher must
    coincide with the span-discrete formulation when all links cost the same)
    and to render figures 7/9/10-style TEN grids. Only non-combining pull
    patterns (All-Gather, Broadcast) are supported directly, mirroring the
    paper's presentation; reductions reverse as usual. *)

val synthesize : ?seed:int -> Topology.t -> Spec.t -> Ten.t
(** Raises [Invalid_argument] if the topology's links do not all share one
    cost at the spec's chunk size, or the pattern is not All-Gather /
    Broadcast. Raises {!Synthesizer.Stuck} on a non-strongly-connected
    topology. The oracle of test_synthesizer's "reference agrees on ring" and
    "reference agrees on FC", its only callers. *)

val schedule : Ten.t -> Schedule.t
(** The synthesized TEN as a timed schedule ({!Ten.to_schedule}). Only
    test_synthesizer's "reference agrees on ring" calls it. *)
