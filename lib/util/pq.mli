(** Binary min-heap keyed by float with an int payload — the event queue
    of the discrete-event network simulator, and the synthesizer's queue of
    send finish times. Ties are popped in insertion
    order, which gives the simulator deterministic FCFS behavior: pops
    follow (key, insertion number) in lexicographic order. Keys must not be
    NaN. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int
(** The number of entries. Outside this module only tests call it: test_replay's
    "pops in (key, insertion) order". *)

val push : t -> float -> int -> unit

val pop : t -> float array -> int
(** [pop t key] removes the least entry, writes its key into [key.(0)] and
    returns its payload. It allocates nothing, which a returned float could
    not promise: across a module boundary compiled with [-opaque] a float
    result is boxed. Raises [Invalid_argument] when empty. *)

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
