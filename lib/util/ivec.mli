(** Growable int arrays with O(1) append and swap-remove — the working sets
    of the synthesizer's matching loop. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val push : t -> int -> unit

val swap_remove : t -> int -> int
(** [swap_remove t i] removes index [i] by swapping the last element into it;
    returns the element that now lives at [i] (or [-1] if [i] became the
    end). O(1). *)

val exists_from : t -> start:int -> (int -> bool) -> int
(** [exists_from t ~start p] scans circularly from index [start], returning
    the first index whose element satisfies [p], or [-1]. *)
