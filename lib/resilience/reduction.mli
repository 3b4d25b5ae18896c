(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Per-chunk reduction state, replayed from the kept prefix of a combining
    collective's schedule.

    Mid-flight repair of a Reduce-Scatter / Reduce / All-Reduce fault needs
    to know more than chunk positions: each surviving copy of a chunk is a
    {e partial sum} that has absorbed some subset of the ranks'
    contributions. This tracker replays the sends that finished before the
    fault and answers exactly that — which contributions each copy holds —
    in the form {!Tacos.Synthesizer.synthesize_goal_plan} accepts as goal
    [partials].

    Replay semantics mirror {!Schedule.validate_reduction}: a combining send
    spends the source's accumulated set at its start and merges it into the
    destination at its finish; a pull send replicates a fully-reduced value.
    Sends still in flight at the fault are ignored — repair cancels them, so
    their contributions remain at the source. *)

type t

val create :
  num_npus:int -> num_chunks:int -> contributors:(int * int) list -> t
(** A fresh tracker: each [(npu, chunk)] contributor starts holding exactly
    its own contribution. For non-combining chunks list the single initial
    holder as the chunk's one contributor — a held copy is then "fully
    reduced" and the tracker degenerates to position tracking, which lets
    one replay cover every supported pattern. *)

val replay : t -> combining:Schedule.t -> pull:Schedule.t -> at:float -> unit
(** Apply every send of the two phase schedules that finished by [at]
    (within {!Schedule.eps_for}), in chronological order with finishes
    applied before starts at equal times. Both schedules are absolute-time,
    healthy-link-id phases of one collective (for All-Reduce: the
    Reduce-Scatter phase as [combining], the shifted All-Gather as [pull]). *)

val is_full : t -> npu:int -> chunk:int -> bool
(** Has the copy at [npu] absorbed every contribution of [chunk]? *)

val positions : t -> (int * int) list
(** All fully-reduced copies as [(npu, chunk)], in index order — the
    [precondition] of a repair goal. *)

val partials : t -> (int * int * int list) list
(** All strictly-partial non-empty accumulators as
    [(npu, chunk, absorbed)], in index order — the [partials] of a repair
    goal. *)
