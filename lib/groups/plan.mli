(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Hierarchical synthesis: decompose a collective over process groups,
    synthesize each phase on its sub-topologies with the flat TACOS
    synthesizer, dedupe isomorphic sub-fabrics through
    {!Tacos.Registry.fingerprint}, and compose one full-fabric schedule.

    Phase decompositions (the BlueConnect/PCCL shapes, with [G] groups of
    [m] NPUs and their [m] orthogonal slices):
    - All-Gather:      inter-AG on every slice, then intra-AG in every group
    - Reduce-Scatter:  intra-RS in every group, then inter-RS on every slice
    - All-Reduce:      intra-RS, inter-AR on every slice, intra-AG
    - Broadcast r:     inter-Broadcast on the root's slice, then intra
    - Reduce r:        intra-Reduce in every group, then inter on the slice

    Each phase's sub-schedules start together at the previous phase's
    completion time (for All-Reduce the slice All-Gathers additionally wait
    for the *slowest* slice Reduce-Scatter, so the composed phases satisfy
    {!Schedule.validate_all_reduce}). The static barrier only constrains the
    *schedule*; replaying it under [Engine.run] melts the barrier into
    per-chunk dependencies, so cross-phase congestion and pipelining are
    measured, not assumed.

    Obs metrics (when enabled): [groups.groups], [groups.phases],
    [groups.syntheses], [groups.dedup_hits] counters and the
    [groups.phase_synth_seconds] timer. *)

(** How to derive the partition. *)
type grouping =
  | Dim of int  (** partition by this hierarchy coordinate *)
  | Auto  (** {!Group.auto_dim} *)
  | Partition of int array list  (** explicit member sets *)

val grouping_of_string : string -> (grouping, string) result
(** Parse a CLI argument: ["auto"] or a dimension index. *)

val decompose : Topology.t -> grouping -> (Group.t list, string) result
(** Derive and {!Group.validate} the partition. All failures — no usable
    hierarchy, degenerate split, invalid explicit partition — come back as
    [Error]. *)

type phase_info = {
  phase : string;  (** e.g. ["intra-reduce-scatter"] *)
  parts : int;  (** sub-collectives composing the phase *)
  syntheses : int;  (** flat syntheses actually run *)
  dedup_hits : int;  (** parts served by an isomorphic part's synthesis *)
  wall_seconds : float;  (** synthesis wall-clock spent in this phase *)
  makespan : float;  (** phase duration in the composed schedule *)
}

type t = {
  groups : int;
  group_size : int;
  result : Tacos.Synthesizer.result;
      (** the composed full-fabric schedule, with [phases] set for
          All-Reduce and [stats.wall_seconds] summing phase synthesis time *)
  phase_infos : phase_info list;
  syntheses : int;
  dedup_hits : int;
}

val synthesize :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  Topology.t ->
  Spec.t ->
  groups:Group.t list ->
  t
(** Hierarchically synthesize [spec] over the partition. Exactly one flat
    synthesis runs per distinct (sub-fingerprint, sub-spec) pair; the rest
    are dedup hits. Raises [Invalid_argument] when the partition fails
    {!Group.validate} or the spec's NPU count mismatches the topology,
    [Tacos.Synthesizer.Unsupported] for patterns without a group decomposition
    (All-to-All, Gather, Scatter), and propagates [Tacos.Synthesizer.Stuck].

    A phase dedups its keys before it dispatches: in element order, the
    first element whose key is not yet cached owns that synthesis and every
    later element with the key is a dedup hit. With [domains] (default 1)
    above 1, a phase's owners fan out through one {!Tacos_util.Pool.map} on
    the shared pool (grown to at least [domains] workers), and [domains] is
    passed down to each flat synthesis, so group- and trial-parallelism
    draw from one worker budget. Ownership depends on element order alone,
    sub-results are composed in element order and phases stay sequential,
    so the composed schedule, phase splits, and every phase_info row
    (wall-clock aside) are bit-identical to [~domains:1]. *)
