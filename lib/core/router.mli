(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Greedy time-space routing over the TEN — the synthesis engine for
    All-to-All, Gather and Scatter, an extension beyond the paper.

    TACOS' matching loop (Alg. 1) is pull-based: a chunk moves because the
    receiving NPU's own postcondition demands it, which is what makes
    intermediate NPUs relay chunks in All-Gather-style patterns. All-to-All
    demands are pairwise — an intermediate NPU never wants the chunk it must
    relay — so the matching cannot route it. This module synthesizes such
    patterns with the same TEN discipline (each physical link carries one
    chunk at a time) using greedy time-space routing instead: chunks with
    explicit (source, destination) pairs are routed one by one, each on its
    earliest-arrival path through the partially reserved time-expanded
    network, reserving the link intervals it uses.

    The output is an ordinary {!Tacos_collective.Schedule.t}: validated by
    the same checker, replayable by the same simulator, exportable to the
    same JSON. *)

(** Per-link reservation calendar: sorted disjoint busy intervals, with all
    comparisons under the magnitude-scaled {!Schedule.eps_for} tolerance.
    Exposed for testing. *)
module Calendar : sig
  type t

  val create : unit -> t
  (** An empty calendar. Only test_alltoall's calendar cases call it ("empty
      calendar is free", "fits into gaps", "reserve rejects overlap"). *)

  val earliest_free : t -> ready:float -> dur:float -> float
  (** Earliest [start >= ready] such that [\[start, start + dur)] is free. Only
      test_alltoall's calendar cases call it from outside. *)

  val reserve : t -> start:float -> dur:float -> unit
  (** Mark [\[start, start + dur)] busy. Raises [Invalid_argument] if the
      interval overlaps an existing reservation by more than the scaled
      tolerance. Only test_alltoall's calendar cases call it from outside. *)
end

val synthesize : ?seed:int -> Topology.t -> Spec.t -> Synthesizer.result
(** Synthesis by routing, for the point-to-point demand patterns:
    [All_to_all], [Gather] (every NPU's chunks to the root) and [Scatter]
    (the root's chunks out to their owners). Raises [Invalid_argument] for
    other patterns — the matching loop ({!Synthesizer.synthesize}) covers
    those — and {!Synthesizer.Stuck} if the topology is not strongly
    connected. *)

val synthesize_any :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?deadline:Tacos_util.Deadline.t ->
  ?sketch:Synthesizer.constraints ->
  Topology.t ->
  Spec.t ->
  Synthesizer.result
(** The one pattern-to-engine dispatch: All-to-All, Gather and Scatter go
    to {!synthesize}, every other pattern to {!Synthesizer.synthesize} with
    all the arguments. Routing has no round loop to poll, so an
    already-expired [deadline] raises {!Synthesizer.Deadline_exceeded}
    before a routed pattern starts; [trials] and [domains] do not apply to
    it, and a [sketch] raises {!Synthesizer.Unsupported} (sketches constrain
    the matching loop only). *)
