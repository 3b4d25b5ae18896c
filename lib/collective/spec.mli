(** A concrete collective instance: pattern + NPU count + chunking + size.

    Size convention: [buffer_size] is the size in bytes of the full collective
    vector — the per-NPU buffer of an All-Reduce, the concatenated result of
    an All-Gather, or the root buffer of a Broadcast. This matches the
    paper's "collective size" (e.g. "1 GB All-Reduce"), and All-Reduce
    bandwidth is [buffer_size / collective_time].

    The vector is split into chunks, the atomic scheduling unit (§II-A). For
    the owner-based patterns (All-Gather, Reduce-Scatter, All-Reduce, Gather,
    Scatter) there are [npus * chunks_per_npu] chunks and chunk [c] initially
    belongs to NPU [c / chunks_per_npu]; for rooted Broadcast/Reduce there are
    [chunks_per_npu] chunks, all rooted; for All-to-All there is one chunk
    group per ordered (src, dst) pair ([npus^2 * chunks_per_npu] ids, see
    {!a2a_chunk}). *)

type t = private {
  pattern : Pattern.t;
  npus : int;
  chunks_per_npu : int;
  buffer_size : float;
}

val make :
  ?chunks_per_npu:int -> ?buffer_size:float -> pattern:Pattern.t -> npus:int -> unit -> t
(** [chunks_per_npu] defaults to 1, [buffer_size] to [1.0] (1 byte — handy
    for purely structural uses). Raises [Invalid_argument] on a nonpositive
    field, a non-finite [buffer_size] or an out-of-range root. *)

val num_chunks : t -> int
val chunk_size : t -> float

val owner : t -> int -> int
(** [owner t c]: the NPU that chunk [c] is anchored to (its initial holder in
    All-Gather, its final holder in Reduce-Scatter, the root for rooted
    patterns). *)

val a2a_chunk : t -> src:int -> dst:int -> int -> int
(** All-to-All chunk id for (source, destination, slot). Meaningful only for
    the [All_to_all] pattern, whose chunks are indexed per ordered pair. *)

val a2a_dest : t -> int -> int
(** The destination NPU encoded in an All-to-All chunk id. Outside this module
    only tests call it: test_alltoall's "spec conditions". *)

val precondition : t -> (int * int) list
(** [(npu, chunk)] pairs held at t = 0. For the composite [All_reduce] this
    is the Reduce-Scatter precondition. *)

val postcondition : t -> (int * int) list
(** [(npu, chunk)] pairs that must hold at the end. For [All_reduce] this is
    the All-Gather postcondition (everyone holds everything). *)

val iter_precondition : t -> (int -> int -> unit) -> unit
(** [iter_precondition t f] calls [f npu chunk] on every pair of
    {!precondition}, in the same order, without building the list. *)

val iter_postcondition : t -> (int -> int -> unit) -> unit
(** The pairs of {!postcondition}, in the same order. *)

val reverse : t -> t
(** The spec whose synthesis, mirrored in time on the reversed topology,
    implements this one (§IV-E). Raises [Invalid_argument] for [All_reduce]. *)

val with_pattern : t -> Pattern.t -> t

val pp : Format.formatter -> t -> unit
