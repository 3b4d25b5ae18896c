(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Fault models for degraded fabrics (§III / §VII resilience story).

    A fault names a failure against the *healthy* topology: link ids and NPU
    ids refer to it. Applying a fault set produces a degraded copy of the
    topology ({!Topology.map_links} underneath, so hierarchy and cut hints
    survive while ring embeddings are invalidated). Injection is
    deterministic — every random sampler threads a {!Tacos_util.Rng.t}, so a
    fault sweep reproduces exactly from a single seed. *)

type t =
  | Kill_link of int  (** the link id stops carrying traffic *)
  | Degrade_link of { link : int; factor : float }
      (** the link survives at reduced capability: bandwidth divided by
          [factor], latency multiplied by [factor] ([factor >= 1]) *)
  | Kill_npu of int
      (** the NPU's ports all fail: every incident link (either direction)
          is removed; the NPU itself stays in the numbering, isolated *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_json : t -> Tacos_util.Json.t

(** {1 Applying faults} *)

val validate : Topology.t -> t list -> (unit, string) result
(** Check every fault references a real link/NPU and degradation factors are
    finite and [>= 1]. *)

val killed_links : Topology.t -> t list -> int list
(** The healthy-topology link ids removed by the fault set ([Kill_link]s
    plus every link incident to a [Kill_npu]), sorted, deduplicated. *)

val degraded_links : Topology.t -> t list -> (int * float) list
(** The surviving links whose parameters change, as [(healthy id, combined
    factor)]; multiple degradations of one link compound multiplicatively.
    Links that are also killed are excluded. *)

val apply : Topology.t -> t list -> Topology.t
(** The degraded topology. Raises [Invalid_argument] when {!validate}
    fails. Link ids are renumbered densely (see {!Topology.map_links});
    use {!killed_links}/{!degraded_links} with healthy ids for analyses. *)

val timeline : at:float -> Topology.t -> t list -> Tacos_sim.Engine.fault_event list
(** Lower a fault set to the engine's timed fault events, all landing at
    [at]: [Kill_link] → [Link_dies], [Kill_npu] → one [Link_dies] per
    incident link, [Degrade_link] → [Link_degrades] with the compound factor.
    A link both killed and degraded just dies. Link ids are healthy-topology
    ids, matching what [Engine.run ~faults] on the *healthy* topology
    expects. Raises [Invalid_argument] when {!validate} fails or [at < 0]. *)

val validate_events : Topology.t -> (float * t list) list -> (unit, string) result
(** Check a multi-epoch fault timeline: every time is non-negative, times are
    strictly increasing, each epoch's faults pass {!validate}, and no epoch
    kills or degrades a link an earlier epoch already removed ([Kill_npu]s
    count through their incident links). *)

val link_id_map : Topology.t -> t list -> int array
(** The degraded-to-healthy link-id map of {!apply}: element [k] is the
    healthy id of the degraded topology's link [k] (surviving links are
    renumbered densely in healthy-id order). Lets schedules synthesized on
    the degraded copy be lifted back into the healthy id space. *)

(** {1 Connectivity pre-check} *)

type connectivity =
  | Connected  (** still strongly connected: synthesis will terminate *)
  | Disconnected of { survivors : int list; isolated : int list }
      (** [survivors] is the largest surviving strongly-connected component
          (the fabric a shrunk collective could still run over); [isolated]
          is everyone else, sorted *)

val connectivity : Topology.t -> connectivity
(** Classify an (already degraded) topology. *)

val pp_connectivity : Format.formatter -> connectivity -> unit

val disconnecting_fault : Topology.t -> t list -> t option
(** Apply the faults one at a time, in order, and name the first one that
    breaks strong connectivity — [None] if the full set leaves the fabric
    connected (or the healthy topology was already disconnected). *)

(** {1 Deterministic samplers} *)

val random_link_kills : Tacos_util.Rng.t -> Topology.t -> int -> t list
(** [k] distinct links sampled uniformly. Raises [Invalid_argument] if the
    topology has fewer than [k] links. *)

val random_npu_kills : Tacos_util.Rng.t -> Topology.t -> int -> t list
(** [k] distinct NPUs sampled uniformly. Raises [Invalid_argument] if there
    are fewer than [k] NPUs. *)

val random_degradations :
  Tacos_util.Rng.t -> factor:float -> Topology.t -> int -> t list
(** [k] distinct links degraded by [factor]. Raises [Invalid_argument]
    unless [factor] passes the check of {!validate}. *)

val random_connected_link_kills :
  Tacos_util.Rng.t -> Topology.t -> int -> t list option
(** Sample up to 64 candidate [k]-link kill sets and
    return the first that leaves the fabric strongly connected — the
    survivable-fault sweeps of the resilience experiment. [None] when every
    attempt disconnects (e.g. [k] at least the min degree on a sparse
    fabric). *)
