(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
open Tacos_sim

(** Uniform handle over every baseline collective algorithm of §V-A, plus
    the simulation driver the benches use. *)

type t =
  | Ring of { bidirectional : bool }
  | Direct
  | Rhd
  | Dbt
  | Blueconnect of { chunks : int }
  | Themis of { chunks : int }
  | Multitree
  | Taccl_like
  | Ccube

val name : t -> string

val ring : t
(** Bidirectional Ring, the paper's default baseline. *)

val program : t -> Topology.t -> Spec.t -> Program.t
(** Build the algorithm's logical program for this collective instance. *)

val simulate : t -> Topology.t -> Spec.t -> Engine.report
(** [program] then {!Engine.run}. *)

val best_feasible : Topology.t -> Spec.t -> (t * Engine.report) option
(** Among the topology-agnostic candidates a fallback ladder can always try
    (Ring, Direct, RHD, DBT, MultiTree, TACCL-like; the hierarchy-bound
    algorithms need extra parameters), the feasible one with the smallest
    simulated completion time, or [None] when every probe fails. *)

val collective_time : t -> Topology.t -> Spec.t -> float
(** The simulated completion time. *)
