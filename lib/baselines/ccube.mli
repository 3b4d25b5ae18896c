(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
open Tacos_sim

(** C-Cube-like baseline [27] (§VI-B.5): two manually mapped, edge-disjoint
    binary trees over the DGX-1 hybrid cube-mesh, each reducing half the
    buffer to its root and broadcasting it back, chunks pipelined. Faithful
    to the limitation the paper measures: the two trees consume only 4 of
    each GPU's 6 NVLinks, leaving a third of the fabric idle. *)

val program : Topology.t -> Spec.t -> Program.t
(** All-Reduce on the 8-GPU DGX-1 topology only. *)

val tree_links_used : Topology.t -> int
(** Number of directed physical links the two trees touch (for the
    utilization argument of §VI-B.5). Only tests call it: test_baselines'
    "C-Cube idle links" pins the count. *)
