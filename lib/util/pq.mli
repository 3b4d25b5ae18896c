(** Min-priority queue keyed by float with an int payload — the event
    queue of the discrete-event network simulator, and the synthesizer's
    queue of send finish times. Pops follow (key, insertion number) in
    lexicographic order, keys compared with [<] and [=]: ties pop in
    insertion order, which gives the simulator deterministic FCFS behavior.
    Keys are never NaN, which this order could not place: every caller
    checks its inputs. [Link.make] takes only finite costs, [Spec.make]
    only a finite buffer, and the simulator rejects a transfer size that
    is NaN or infinite and an infinite degradation factor.

    The queue is a binary heap of {e runs}. A run is a FIFO of entries
    whose keys are equal under [=]; each entry keeps its own key, so [pop]
    returns [-0.] for an entry pushed as [-0.] even in a run of [0.]. The
    heap orders runs by (key, insertion number of the run's first entry).
    A push joins a run only while that run is open: the last four runs
    opened are open, so opening a fifth closes the oldest, and a run closes
    when it drains. A closed run never takes another entry, which keeps
    the runs of one key in insertion order.

    Cost. A push that joins an open run is O(1): a scan of the four open
    keys and an append. A push that opens a run is one heap insertion,
    O(log r) in the [r] pending runs. A pop is O(1) unless it drains its
    run, which costs one heap deletion, O(log r). The event loops push
    many events at each time, and few times are pending at once, so most
    operations skip the heap. In the worst case every key is distinct:
    one run per entry, a binary heap plus a scan of the open keys per
    push. Entry storage grows by doubling and reuses the slots that pops
    free; [create] allocates none of it. *)

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
