(** Directed multigraph of NPUs connected by α-β links.

    Nodes are integers [0 .. num_npus - 1]. Parallel links between the same
    pair of NPUs are allowed (DGX-1's hybrid cube-mesh has doubled NVLinks);
    every physical link has a unique integer id, and both the synthesizer and
    the network simulator treat each link as an independent resource with its
    own occupancy.

    A topology is assembled by [create] + [add_link] and is treated as
    immutable once built; all builders in {!Builders} return fully-built
    values. *)

type t

type edge = { id : int; src : int; dst : int; link : Link.t }

(** Description of one dimension of a hierarchical (multi-dimensional)
    topology, used by dimension-aware baselines (BlueConnect, Themis). *)
type dim_kind =
  | Ring_dim  (** bidirectional ring with wraparound (Torus dimension) *)
  | Mesh_dim  (** bidirectional chain without wraparound (asymmetric) *)
  | Fully_connected_dim
  | Switch_dim of int
      (** switch unwound into a degree-[d] point-to-point fabric (§IV-G) *)

type dim = { kind : dim_kind; size : int; link : Link.t }

val create : ?name:string -> int -> t
(** [create n] makes an edgeless topology over [n] NPUs.
    Raises [Invalid_argument] if [n <= 0]. *)

val add_link : t -> src:int -> dst:int -> Link.t -> int
(** Adds a unidirectional link and returns its id. Self-loops and
    out-of-range endpoints raise [Invalid_argument]. *)

val add_bidir : t -> int -> int -> Link.t -> unit
(** Adds a link in both directions. *)

val name : t -> string
val num_npus : t -> int
val num_links : t -> int

val edge : t -> int -> edge
(** Look up a link by id. Raises [Invalid_argument] if out of range. *)

val edges : t -> edge list
(** All links, in id order. *)

val out_edges : t -> int -> edge list
(** Links leaving an NPU. *)

val in_edges : t -> int -> edge list
(** Links entering an NPU. *)

val find_links : t -> src:int -> dst:int -> edge list
(** All parallel links from [src] to [dst] (possibly empty). *)

val is_strongly_connected : t -> bool
(** Synthesis of an all-to-all-style collective terminates iff the topology
    is strongly connected; callers check this up front. *)

val strongly_connected_components : t -> int list list
(** The strongly connected components, each sorted ascending, ordered
    largest-first (ties broken by smallest member). A healthy fabric has
    exactly one; after link/NPU failures the head is the surviving component
    a degraded collective could still run over. *)

val reverse : t -> t
(** Same NPUs, every link's direction flipped (link ids preserved). Used to
    synthesize reduction collectives by reversal (§IV-E, Fig. 11). *)

val without_links : t -> int list -> t
(** A copy of the topology with the given link ids removed — degraded-fabric
    scenarios (link failures). Link ids are renumbered densely. Hierarchy and
    cut hints are carried over (the NPU numbering is unchanged, so
    coordinates and slab subsets still make sense on the degraded fabric);
    ring embeddings are invalidated by design — they enumerate physical
    paths that the removed links may have broken — and are dropped. Raises
    [Invalid_argument] on an unknown id. Only tests call it: test_synthesizer's
    "re-synthesis after link failure" and "without_links bad id". *)

val map_links : ?name:string -> t -> (edge -> Link.t option) -> t
(** [map_links t f] rebuilds the topology, keeping each edge [e] with link
    parameters [l] where [f e = Some l] and dropping it where [f e = None] —
    the general fault-injection primitive ({!without_links} composed with
    per-link degradation). Link ids are renumbered densely in the surviving
    edges' id order. Metadata behaves as in {!without_links}: hierarchy and
    cut hints carry over, ring embeddings are dropped. [name] defaults to
    [t]'s name suffixed with ["-degraded"]. *)

(** {1 Hierarchy and ring-embedding metadata} *)

val set_hierarchy : t -> dim array -> unit
(** Record that this topology was built as a multi-dimensional hierarchy.
    Dimension 0 varies fastest in the node numbering. *)

val hierarchy : t -> dim array option

val coords : t -> int -> int array
(** Coordinates of a node under the recorded hierarchy. Raises
    [Invalid_argument] if the topology has none. *)

val of_coords : t -> int array -> int
(** Inverse of [coords]. Outside this module only tests call it: test_topology's
    "coords/of_coords round-trip". *)

val dim_group : t -> dim:int -> int -> int list
(** [dim_group t ~dim node]: the nodes reachable by varying coordinate [dim]
    only (including [node] itself), in coordinate order. *)

val set_cut_hints : t -> int list list -> unit
(** Record NPU subsets whose ingress bandwidth is a plausible bottleneck
    (e.g. DragonFly groups, one coordinate-slab per dimension of a
    hierarchy). The ideal-bound computation checks the bisection-style bound
    over each hint in addition to the per-NPU ingress bound. *)

val cut_hints : t -> int list list
(** Recorded hints ([[]] when none). *)

val ingress_bandwidth_of : t -> int list -> float
(** Total bandwidth of links entering the subset from outside it. *)

val set_rings : t -> int array list -> unit
(** Record suggested logical-ring embeddings (each a permutation of a subset
    of NPUs laid head-to-tail over physical links). Builders that know a good
    decomposition — e.g. DGX-1's three rings — record it here; the Ring
    baseline uses it when present. *)

val rings : t -> int array list option

(** {1 Aggregate properties (used by the ideal bound, §V-A)} *)

val min_ingress_bandwidth : t -> float
(** Minimum over NPUs of the sum of incoming link bandwidths. *)

val diameter_latency : t -> float
(** Maximum over ordered NPU pairs of the cheapest-path α cost — the minimum
    latency for the farthest two NPUs to communicate. Raises [Failure] if the
    topology is not strongly connected. *)

val total_bandwidth : t -> float
(** Sum of all link bandwidths. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** GraphViz rendering of the topology. Bidirectional link pairs collapse to
    one undirected edge; edges are annotated with bandwidth (and latency when
    links differ). Only tests call it: test_topology's "GraphViz export". *)
