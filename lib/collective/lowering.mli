(** Lowering a schedule to per-NPU operation streams.

    A CCL runtime executes a collective algorithm as one program per NPU —
    an ordered list of sends and receives with their peers. This module
    derives those programs from a synthesized schedule, which is also a
    convenient form for eyeballing what any single NPU does. *)

type op =
  | Send of { chunk : int; peer : int; link : int; start : float; finish : float }
  | Recv of { chunk : int; peer : int; link : int; start : float; finish : float }

val time_of : op -> float
(** The op's start time (sort key). Outside this module only tests call it:
    test_collective's "per-NPU lowering" checks each program is in its order. *)

val npu_programs : npus:int -> Schedule.t -> op list array
(** [npu_programs ~npus sched]: for each NPU, its sends and receives in
    start-time order (receives keyed by the matching send's interval). *)

val pp_program : Format.formatter -> op list -> unit
(** One line per op, e.g. ["[1.0us] send chunk 3 -> NPU 5 (link 12)"]. *)
