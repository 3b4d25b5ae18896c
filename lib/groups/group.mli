(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Process groups over a fabric: a partition of the NPUs into equal-sized
    sets, each carrying the induced sub-topology, ready for per-group
    synthesis and composition back onto global ids.

    A group's [members] array is its local-rank order: local rank [i] is
    global NPU [members.(i)]. Hierarchical decomposition pairs the groups
    with their orthogonal {!slices} — slice [r] collects the rank-[r] member
    of every group — so a collective can run intra-group phases on the
    groups and inter-group phases on the slices (the BlueConnect/PCCL
    decomposition).

    Sub-topologies are extracted from their members' out-links, with the
    induced links sorted into a canonical order (endpoints, then α-β cost,
    then global id), so two groups with isomorphic induced fabrics *under
    their rank order* get byte-identical {!Tacos.Registry.fingerprint}s and
    link numbering — that is what lets one synthesis be composed into every
    isomorphic group. Extracting a group costs the out-degree of its
    members, not the size of the fabric. *)

type t = {
  gid : int;  (** index of this group within its partition *)
  members : int array;  (** global NPU ids; index = local rank *)
  topo : Topology.t;  (** induced sub-topology over local ranks *)
  link_map : int array;  (** sub-topology link id → global link id *)
}

val of_dim : Topology.t -> dim:int -> t list
(** Partition by coordinate [dim] of the recorded hierarchy: group [g]
    holds the NPUs whose [dim]-coordinate is [g] (ascending id order), so
    each group is a slab varying every *other* dimension and each slice is
    a dimension-[dim] line. Raises [Invalid_argument] when the topology has
    no hierarchy, [dim] is out of range, or the split is degenerate (fewer
    than 2 groups or fewer than 2 members per group). *)

val of_partition : Topology.t -> int array list -> t list
(** Explicit partition: one group per member array, in the given order,
    local ranks following each array's order. Structural errors (empty
    arrays, out-of-range or duplicate ids) raise [Invalid_argument];
    semantic partition errors are reported by {!validate}. *)

val auto_dim : Topology.t -> int option
(** Pick the inter-group dimension heuristically: the dimension with the
    least per-NPU bandwidth (the cut that bounds the collective), breaking
    ties toward more groups (smaller intra fabrics synthesize faster), then
    toward the lowest index. [None] when the topology records no hierarchy
    or no dimension yields a non-degenerate split. *)

val slices : Topology.t -> t list -> t list
(** [slices topo groups]: slice [r] is the group formed by the rank-[r]
    member of every group, in group order (named ["<topo>/s<r>"]). Assumes
    equal-sized groups ({!validate}). *)

val validate : Topology.t -> t list -> (unit, string) result
(** Check the partition is usable for hierarchical synthesis: at least two
    groups, equal sizes of at least two, members disjoint and covering every
    NPU, and every group *and every slice* strongly connected (each hosts a
    sub-collective, which needs a connected fabric). *)

val fingerprint : t -> string
(** {!Tacos.Registry.fingerprint} of the induced sub-topology — equal for
    groups whose fabrics are isomorphic under rank order. Only tests call it:
    test_groups' "one synthesis per fingerprint". *)
