(** Constructors for every topology evaluated in the paper (Table IV, §V-B)
    plus DGX-1 (§VI-B.5) and the unwound Switch fabrics (§IV-G).

    All links default to the paper's α = 0.5 µs, 1/β = 50 GB/s (footnote 8);
    benches override per experiment. *)

val ring : ?link:Link.t -> ?bidirectional:bool -> int -> Topology.t
(** Physical ring of [n] NPUs. [bidirectional] defaults to [true] — the paper
    uses bidirectional rings throughout (footnote 3). Records the natural
    logical-ring embedding(s). *)

val fully_connected : ?link:Link.t -> int -> Topology.t

val hierarchical :
  ?name:string -> Topology.dim array -> Topology.t
(** General multi-dimensional builder: within each dimension, every group of
    NPUs that differ only in that coordinate is connected according to the
    dimension's kind and link. Dimension 0 varies fastest in node numbering.
    The hierarchy is recorded on the result. Outside this module only tests call
    it: test_topology's "hierarchical coords". *)

val mesh : ?link:Link.t -> int array -> Topology.t
(** k-dimensional mesh (bidirectional chains, no wraparound — asymmetric).
    The paper's "2D Mesh" and "3D Hypercube (5×5×5)" are [mesh [|a; b|]] and
    [mesh [|5; 5; 5|]] respectively. *)

val torus : ?link:Link.t -> int array -> Topology.t
(** k-dimensional torus (bidirectional rings with wraparound — symmetric). *)

val hypercube : ?link:Link.t -> int -> Topology.t
(** Binary [k]-cube with [2^k] NPUs. *)

val switch : ?link:Link.t -> degree:int -> int -> Topology.t
(** [n]-NPU switch unwound into a degree-[degree] point-to-point fabric:
    NPU [i] gets outgoing links to [i+1 .. i+degree (mod n)], with β scaled
    by [degree] to model the shared switch bandwidth (§IV-G, Fig. 13). *)

val two_level_switch :
  ?alpha:float -> bw:float * float -> int * int -> Topology.t
(** The paper's "2D Switch (8×4)": a hierarchy of two unwound degree-1
    switches with per-dimension bandwidths [bw = (bw0, bw1)] in bytes/s. *)

val rfs3d : ?alpha:float -> bw:float * float * float -> int * int * int -> Topology.t
(** 3D Ring–FullyConnected–Switch hierarchy, the paper's 3D-RFS. Dimension
    sizes [(r, f, s)], e.g. [(2, 4, 8)] for the 64-NPU system; [bw] gives the
    per-dimension bandwidths, e.g. 200/100/50 GB/s. *)

val dragonfly :
  ?alpha:float -> ?groups:int -> ?group_size:int -> bw:float * float -> unit -> Topology.t
(** DragonFly with fully-connected groups and one global link per group pair
    (hosted on distinct members, so edge NPUs have higher degree than the
    rest — asymmetric and heterogeneous). Defaults to the paper's 4×5. *)

(** {1 Topologies without hand-designed collectives (§III-C)}

    Flattened Butterfly, SlimFly and Tofu are the paper's examples of
    fabrics that "do not yet have specialized collective algorithms and
    default to baseline collective algorithms" — exactly the gap an
    autonomous synthesizer fills. (MegaFly is omitted: its spine routers
    carry no endpoints, and this model has no switch-only nodes.) *)

val flattened_butterfly : ?link:Link.t -> int array -> Topology.t
(** k-ary n-flat [50]: within every dimension, each group is fully
    connected. [flattened_butterfly [|8; 8|]] is the 64-NPU 2D instance. *)

val slimfly : ?link:Link.t -> unit -> Topology.t
(** The 50-NPU, degree-7 McKay–Miller–Širáň SlimFly [52] for q = 5:
    diameter 2, near the Moore bound. *)

val tofu : ?link:Link.t -> int * int * int -> Topology.t
(** Fujitsu Tofu [53]: a 6D torus XYZ x abc with the fixed 2x3x2 inner
    dimensions; [(x, y, z)] sets the outer ones. *)

val dgx1 : ?link:Link.t -> unit -> Topology.t
(** NVIDIA DGX-1V hybrid cube-mesh: 8 GPUs, 6 NVLinks each (doubled links
    included as parallel edges). Records the three edge-disjoint bidirectional
    ring embeddings that NCCL-style Ring All-Reduce uses, so the Ring baseline
    reaches near-ideal bandwidth on this topology (§VI-B.5). *)
