(** Growable int arrays with O(1) append and swap-remove — the working sets
    of the synthesizer's matching loop. *)

type t

val create : unit -> t
(** An empty vector with room for 8 elements. *)

val length : t -> int

val data : t -> int array
(** The backing array, for loops that read it without a call per element:
    indices below [length t] hold the elements in order, the rest is
    spare. Read it only, and only until the next [push], which may
    replace it. *)

val get : t -> int -> int
(** [get t i] is the element at index [i]; raises [Invalid_argument] out
    of range. Only tests call it: test_util's "push/get". *)

val push : t -> int -> unit

val swap_remove : t -> int -> int
(** [swap_remove t i] removes index [i] by swapping the last element into it;
    returns the element that now lives at [i] (or [-1] if [i] became the
    end). O(1). *)
