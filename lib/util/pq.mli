(** Binary min-heap keyed by float with an arbitrary payload — the event
    queue of the discrete-event network simulator. Ties are popped in
    insertion order, which gives the simulator deterministic FCFS behavior:
    pops follow (key, insertion number) in lexicographic order. Keys must
    not be NaN. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
val peek_key : 'a t -> float option

(** The same heap over bare (float, int) pairs in lexicographic order —
    for non-NaN floats, the order in which a [Set] of [float * int] pairs
    yields its minimum. Dijkstra's queue, with the node id as the int. *)
module Pairs : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool
  val push : t -> float -> int -> unit

  val min_key : t -> float
  (** The float of the least pair. Raises [Invalid_argument] when empty. *)

  val pop : t -> int
  (** Remove the least pair and return its int. Raises [Invalid_argument]
      when empty. *)
end
