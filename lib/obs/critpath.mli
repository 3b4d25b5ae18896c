(** Critical-path extraction and makespan attribution over a recorded
    {!Trace} lifecycle stream.

    Walks back from the last-finishing transfer's [Completed] event through
    each step's binding constraint — the dependency whose completion made
    the transfer ready, the enqueue a service start waited behind (FCFS),
    the service behind an arrival — and partitions [0, makespan] into
    contiguous segments labelled by *where the time went*:

    - [Queue]: waiting in a link's FCFS queue behind other traffic (the
      congestion the paper's §III argument is about);
    - [Serialization]: the link serializing the message (β·size, the useful
      work);
    - [Propagation]: the α flight time after serialization;
    - [Dependency]: residual gaps while waiting on dependencies — zero in
      the current eager engine, kept so the partition is provably total.

    The per-category sums reconstruct the makespan up to float addition
    error; `tacos trace` prints the attribution and the test suite checks
    the sum against [Schedule.eps_for]. *)

type category = Dependency | Queue | Serialization | Propagation

val category_name : category -> string

type segment = {
  tid : int;  (** transfer whose lifecycle this interval belongs to *)
  link : int option;  (** the link involved; [None] for dependency gaps *)
  category : category;
  t0 : float;
  t1 : float;
}

type t = {
  makespan : float;  (** the last [Completed] timestamp *)
  critical_transfer : int;  (** the transfer that finishes last *)
  segments : segment list;  (** the critical path, ascending in time *)
  totals : (category * float) list;  (** seconds per category, all four *)
  per_link : (int * (category * float) list) list;
      (** links on the critical path, largest time share first *)
  per_phase : (string * (category * float) list) list;
      (** per collective phase, when [phase_of] was given *)
}

val analyze : ?phase_of:(int -> string) -> Trace.event list -> t option
(** Attribute the makespan of the run recorded in [events]. [phase_of] maps
    a transfer id to its collective phase name (e.g. derived from the
    program's transfer tags). [None] when the trace contains no completed
    transfer. *)

val attributed_total : t -> float
(** Sum of all category totals — equal to [makespan] within
    [Schedule.eps_for makespan]. *)
