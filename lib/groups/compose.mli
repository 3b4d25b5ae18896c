(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Lifting per-group schedules back onto the full fabric.

    A send synthesized inside a group speaks local ranks, local link ids and
    local chunk ids; lifting rewrites all three through the group's rank
    array, link map, and a caller-supplied chunk map, and translates it in
    time to the phase's start offset. Because the lifted sends keep their
    relative timing and each global link belongs to exactly one group (or
    one slice) per phase, the merged schedule stays congestion-free and
    {!Schedule.validate} accepts it chronologically. *)

val lift : Group.t -> chunk_map:(int -> int) -> offset:float -> Schedule.t -> Schedule.t
(** Rewrite every send of a local schedule to global NPU ids
    ([members.(rank)]), global link ids ([link_map.(edge)]) and global chunk
    ids ([chunk_map chunk]), shifted by [offset] seconds. The result is one
    sorted run: adding [offset] keeps the local order unless rounding turns
    two start times into a tie, and only then is the run re-sorted. *)

val assemble : Schedule.t list -> Schedule.t
(** Merge lifted runs into one full-fabric schedule ({!Schedule.merge}):
    equal (start, finish) pairs keep run order, so the result is the one a
    stable sort of the runs' concatenated sends gives. *)
