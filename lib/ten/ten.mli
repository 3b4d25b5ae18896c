(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Explicit Time-expanded Network (§IV-A, Figs. 6-7).

    A TEN replicates the topology's NPUs across discrete time spans; each
    physical link becomes one edge per span, and a collective algorithm is a
    set of link-chunk matches — each TEN edge carrying at most one chunk
    (§IV-B). This module materializes that structure for homogeneous
    topologies, where all links share one cost and the spans are uniform.

    The event-driven synthesizer in [lib/core] generalizes this to
    heterogeneous links without materializing the graph; this explicit form
    is used for representation, rendering (the figures' grids), and for
    cross-checking the synthesizer on homogeneous inputs. *)

type t

val create : ?spans:int -> Topology.t -> span_cost:float -> t
(** An empty TEN over [topo] with uniform span duration [span_cost],
    initially expanded to [spans] (default 0) spans. *)

val spans : t -> int

val expand : t -> unit
(** Append one more time span (Alg. 2's expansion step). *)

val occupant : t -> span:int -> edge:int -> int option
(** The chunk matched on a TEN edge, if any. *)

val match_chunk : t -> span:int -> edge:int -> chunk:int -> unit
(** Record a link-chunk match. Raises [Invalid_argument] if the edge is
    already occupied in that span or the span is not yet expanded. *)

val utilization : t -> span:int -> float
(** Fraction of links matched in one span. *)

val of_schedule : Topology.t -> span_cost:float -> Schedule.t -> t
(** Discretize a schedule produced on a homogeneous topology whose uniform
    link cost is [span_cost]: a send over \[t, t+cost\] becomes a match in
    span [t / span_cost]. Raises [Invalid_argument] if a send does not align
    with the span grid (within floating-point tolerance) or double-books a
    TEN edge. *)

val to_schedule : t -> Schedule.t
(** The inverse of [of_schedule]. *)

val render : t -> string
(** ASCII grid: one row per physical link, one column per time span, each
    cell the matched chunk (or [.]). Rows beyond the first 64 are elided. *)

(** Cached expansion state for repeated synthesis over one fabric.

    The event-driven synthesizer expands the TEN implicitly but still
    materializes O(links) arrays per trial: per-link endpoints, α/β
    parameters, and the adjacency index its feasibility check walks.
    [Expansion.prepare] hoists that state out of the trial loop so a caller
    that synthesizes many times over the same topology — mid-flight repair
    re-planning the suffix after every fault epoch — reuses one expansion
    instead of rebuilding it per call, and can express dead links as a mask
    over the {e healthy} link-id space rather than a renumbered degraded
    topology copy. *)
module Expansion : sig
  type t

  val prepare : Topology.t -> t
  (** Snapshot [topo]'s per-link and per-NPU structure. The topology must not
      gain links afterwards (existing topologies are frozen in practice). *)

  val topology : t -> Topology.t
  val num_links : t -> int
  val num_npus : t -> int

  val src : t -> int array
  (** Per link id: source NPU. The returned arrays are the expansion's own
      state — callers must not mutate them (copy before scaling costs). *)

  val dst : t -> int array
  val alpha : t -> float array
  val beta : t -> float array

  val out_links : t -> int array array
  (** Per NPU: outgoing link ids, in topology insertion order. *)

  val in_links : t -> int array array

  val reversed : t -> t
  (** The reversed-topology view (link ids preserved, endpoints swapped),
      built lazily once and cached — [reversed (reversed t) == t]. Used by
      combining-phase synthesis, which runs the pull loop on the mirror. *)
end
