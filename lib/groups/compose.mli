(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Composing per-group schedules into one full-fabric schedule.

    A send synthesized inside a group speaks local ranks, local link ids and
    local chunk ids, on a clock that starts at its phase. Composing reads
    each group's schedule through the group's rank array, its link map and
    a chunk table, at the phase's start offset, and merges every group's
    sends straight into the composed schedule's arrays: no relabelled copy
    of a group's schedule is made. Because the sends keep their relative
    timing and each global link belongs to exactly one group (or one slice)
    per phase, the composed schedule stays congestion-free and
    {!Schedule.validate} accepts it chronologically. *)

type part = {
  group : Group.t;  (** NPU table [members], link table [link_map] *)
  chunks : int array;  (** local chunk id → global chunk id *)
  schedule : Schedule.t;  (** the group's schedule on its phase's clock *)
  offset : float;  (** the phase's start time on the composed clock *)
}
(** One group's share of one phase. Parts that deduped to one synthesis
    hold the same [schedule] value. *)

val assemble : part list -> Schedule.t
(** The composed schedule of the parts, in list order: send [i] of a part
    becomes one of chunk [chunks.(c)] over link [group.link_map.(e)] from
    [group.members.(s)] to [group.members.(d)], [offset] seconds later.
    Each distinct (physically equal) schedule at one offset is shifted once
    by {!Schedule.shift}, which re-sorts only where rounding creates a tie,
    and the parts holding it share the shifted copy. The shifted runs are
    then merged in one pass by {!Schedule.merge} through their tables: equal
    (start, finish) pairs keep part order, so the result is the one a stable
    sort of the parts' concatenated relabelled, shifted sends gives. *)
