(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Parallelization strategies and the collective patterns they expose
    (Table III).

    | strategy          | Reduce-Scatter | All-Gather | All-Reduce |
    |-------------------|----------------|------------|------------|
    | Data parallelism  |                |            | ✓          |
    | Tensor parallelism|                |            | ✓          |
    | FSDP              | ✓              | ✓          |            |
    | ZeRO              | ✓              | ✓          |            |
    | Hybrid            | ✓              | ✓          | ✓          |

    Each strategy maps a model to a *communication plan*: the list of
    collectives one training iteration exposes, with their sizes. Plans are
    costed against a {!Training.backend}, so the same comparison Figs. 20-21
    make for data parallelism extends to the sharded strategies — which is
    precisely where many-to-many collectives (and thus TACOS' advantage over
    one-to-many tree synthesizers, §VII-C) matter. *)

type t =
  | Data_parallel
  | Tensor_parallel
      (** activation All-Reduces exposed in forward and backward *)
  | Fsdp
      (** parameters sharded: re-gather weights in forward and backward,
          reduce-scatter gradients *)
  | Zero
      (** optimizer/gradient sharding (ZeRO-2-style): reduce-scatter
          gradients, all-gather updated parameters *)
  | Hybrid
      (** FSDP-style weight sharding plus tensor-parallel activation
          All-Reduces *)

val name : t -> string

val all : t list

type op = { label : string; pattern : Pattern.t; bytes : float }

val plan : t -> Models.t -> op list
(** The collectives one iteration exposes, in execution order. Sizes come
    from the model's weight-gradient and activation-gradient volumes. Outside
    this module only tests call it: test_workload's "plan sizes". *)

val patterns : t -> Pattern.t list
(** The distinct patterns the strategy needs — Table III's row. *)

type cost = {
  strategy : t;
  fwd_compute : float;
  bwd_compute : float;
  comm : (string * float) list;  (** per-op exposed communication time *)
}

val total : cost -> float
val comm_total : cost -> float
(** Only tests call it: test_workload's "DP consistency with Training". *)

val iteration :
  ?npu:Training.npu -> Models.t -> t -> Training.backend -> cost
(** Cost one training iteration under the strategy with collectives served
    by the backend. *)
