(** Static shortest-path routing over a topology.

    Topology-unaware baselines (Direct, RHD, DBT, a logical ring mapped onto
    an arbitrary physical network, ...) schedule transfers between NPU pairs
    that may not share a physical link; the simulator routes each such
    transfer over the static min-cost path, hop by hop (store-and-forward),
    which is what exposes the over/undersubscription the paper measures
    (Fig. 1, Fig. 2a).

    Path costs use the α-β link model at a given message size, so latency- vs
    bandwidth-dominated routing regimes are both represented. *)

type table

val build_partial : Topology.t -> size:float -> table
(** All-pairs next-hop table via one Dijkstra per destination. It tolerates
    unreachable pairs — the table over a fabric degraded by mid-flight link
    failures, where some NPUs may have become unreachable. Query
    unreachable pairs with {!reachable}/{!path_opt}; {!next_hop} on them
    raises. *)

val reachable : table -> src:int -> dst:int -> bool
(** Whether the table holds a finite-cost route. *)

val next_hop : table -> src:int -> dst:int -> int
(** The neighbor [src] forwards to on the way to [dst]. Meaningless (raises
    [Invalid_argument]) when [src = dst]. *)

val path_opt : table -> src:int -> dst:int -> int list option
(** Node sequence from [src] to [dst], inclusive ([[src]] when equal), or
    [None] when the table holds no route. Only tests call it: test_replay's
    "build_partial matches Set Dijkstra" pins the routes against an oracle. *)

val path_cost : table -> src:int -> dst:int -> float
(** Total min-path cost at the table's message size. Only tests call it:
    test_replay's "build_partial matches Set Dijkstra" pins it bit for bit. *)
