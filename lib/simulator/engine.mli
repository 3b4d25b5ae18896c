(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Congestion-aware analytical network simulator (§V-C).

    The paper's evaluation backend models a message transfer "by simulating
    the send and receive operations at the link granularity. Each link is
    equipped with message queues and can process only one message at a time;
    if two messages contend for the same link, only one is sent out in a
    first-come, first-served order." This module is a from-scratch
    discrete-event implementation of exactly that model:

    - every physical link is a FCFS server with service time [α + β·size];
    - a transfer between non-adjacent NPUs follows its static min-cost route,
      store-and-forward at message granularity;
    - parallel links between the same NPU pair are independent servers and a
      hop picks the one with the least backlog;
    - a transfer starts once all its dependencies completed.

    Determinism: ties in the event queue resolve in insertion order, so runs
    are exactly reproducible.

    {2 Mid-flight faults}

    [run ~faults] injects timed fabric changes as first-class event-queue
    entries. When a link dies mid-service the message it was serializing is
    aborted (its unfinished remainder un-credited from the link statistics,
    so the dead link shows no activity past the fault time), re-planned from
    the node it currently sits at over the surviving fabric, and everything
    queued behind it is drained and re-enqueued the same way. Routing tables
    are rebuilt lazily, once per fault epoch. A message whose destination
    became unreachable is reported as {!type-stranded} rather than raised or
    hung; transfers depending on a stranded one inherit the outcome. *)

type fault_event =
  | Link_dies of { link : int; at : float }
      (** the link stops serving at time [at]; in-flight service is aborted
          and rerouted *)
  | Link_degrades of { link : int; factor : float; at : float }
      (** α and β are multiplied by [factor ≥ 1] for services *started*
          after [at] (the committed in-flight message finishes at its
          negotiated rate); factors compose multiplicatively *)
  | Link_recovers of { link : int; at : float }
      (** the link returns to its healthy α/β (and to life, if dead) *)

val fault_time : fault_event -> float
(** When the fault fires. Outside this module only tests call it:
    test_resilience's "timeline lowers fault sets". *)

type stranded = {
  tid : int;  (** transfer id that could not complete *)
  tag : string;  (** the transfer's program tag *)
  at_npu : int;  (** node the message was stuck at when routing failed *)
  dst : int;  (** unreachable destination *)
  time : float;  (** when the disconnection was discovered *)
}

type report = {
  finish_time : float;
  transfer_finish : float array;
      (** completion time per transfer id; [infinity] for stranded transfers
          and their dependents *)
  link_bytes : float array;  (** bytes carried per link id (Fig. 1) *)
  link_busy : float array;  (** busy seconds per link id *)
  link_intervals : (float * float) list array;
      (** per link, the service intervals in time order (Figs. 16b / 18);
          an interval cut short by a link death ends at the fault time *)
  stranded : stranded list;
      (** messages whose destination became unreachable, in discovery order;
          empty on a healthy run *)
}

type error_kind =
  | No_route of { src : int; dst : int }
      (** the healthy fabric cannot route a required pair (only raised when
          [faults = []]; with faults the outcome is {!type-stranded}) *)
  | Never_completed of { remaining : int }
      (** the event queue drained with transfers unfinished and no stranding
          to explain them — an engine bug ({!Cyclic_program} is rejected up
          front) *)
  | Cyclic_program of { dep : int }
      (** the named transfer depends on transfer [dep], which is not earlier:
          the program (necessarily {!Program.import}ed — {!Program.add}
          cannot build one) would deadlock and is rejected before any event
          runs *)

exception Simulation_error of { tid : int; tag : string; kind : error_kind }
(** Typed replacement for the engine's former [failwith]s, so callers
    ({!Tacos_resilience}) can catch it structurally. *)

type link_model =
  | Pipelined_alpha
      (** β·size occupies the link, α is propagation latency overlapping the
          next message's serialization — the default, required for the
          latency-bound crossovers of Fig. 2(b) *)
  | Blocking_alpha
      (** the link is held for the full α + β·size — the naive reading of
          the α-β model, kept for sensitivity analysis *)

val run :
  ?model:link_model ->
  ?faults:fault_event list ->
  Topology.t ->
  Program.t ->
  report
(** Execute a program to completion. Routes are costed at the program's
    mean transfer size (at least one byte), so latency- and bandwidth-bound
    programs may take different paths.
    [faults] is the timed fault timeline (default none); at equal timestamps
    a fault applies before same-time transfer events. Raises
    {!Simulation_error} if the program is cyclic ({!Cyclic_program}, checked
    up front), the healthy topology cannot route a required pair, or
    unfinished transfers cannot be explained by strandings;
    [Invalid_argument] on a malformed fault (unknown link id, negative time,
    degradation factor < 1 or infinite). *)

val utilization_timeline : Topology.t -> report -> bins:int -> (float * float) list
(** Fraction of links busy per time bin, as in {!Tacos_collective.Schedule}. *)

val average_utilization : Topology.t -> report -> float
