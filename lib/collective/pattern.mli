(** Collective communication patterns (§II-A, Fig. 4). *)

type t =
  | All_gather
  | Reduce_scatter
  | All_reduce
  | Broadcast of int  (** root NPU *)
  | Reduce of int  (** root NPU *)
  | Gather of int  (** root NPU *)
  | Scatter of int  (** root NPU *)
  | All_to_all
      (** every NPU sends a distinct chunk to every other NPU (MoE-style);
          an extension beyond the paper's Table III, synthesized by
          the time-space router ([Tacos.Router.synthesize_any]) rather
          than the matching loop *)

val name : t -> string

val is_combining : t -> bool
(** True for patterns that involve reduction of chunks (Reduce-Scatter,
    Reduce). TACOS synthesizes these by synthesizing the reversed
    non-combining counterpart and mirroring the schedule (§IV-E, Fig. 11).
    [All_reduce] is composite (Reduce-Scatter then All-Gather) and reports
    [false]; use {!counterpart} / composition instead. *)

val counterpart : t -> t option
(** The non-combining pattern whose reversal yields this one:
    [Reduce_scatter -> Some All_gather], [Reduce r -> Some (Broadcast r)],
    [Scatter r -> Some (Gather r)] (and vice versa for the reversible
    non-combining pairs). [None] for [All_reduce]. *)
