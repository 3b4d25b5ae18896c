(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Collective-algorithm intermediate representation: a set of timed,
    link-assigned chunk transfers.

    This is the common output format of the TACOS synthesizer and the input
    the validator and analyses work on. A schedule is exactly the "static
    path of each chunk" the paper defines a collective algorithm to be
    (§II-B), with the TEN timing made explicit: each send occupies one
    physical link for one interval, and a link carries at most one chunk at a
    time (the congestion-freedom invariant of §IV-B). *)

type send = {
  chunk : int;
  edge : int;  (** physical link id in the topology *)
  src : int;
  dst : int;
  start : float;
  finish : float;
}

type t = private {
  chunks : int array;
  edges : int array;
  srcs : int array;
  dsts : int array;
  starts : float array;
  finishes : float array;
  makespan : float;
}
(** Six parallel arrays, one slot per send: send [i] moves chunk
    [chunks.(i)] over link [edges.(i)] from NPU [srcs.(i)] to NPU [dsts.(i)]
    during [[starts.(i), finishes.(i)]]. Sends are in stable (start, finish)
    order: by start, then finish, and equal pairs in the order they were
    given. [makespan] is the largest finish time (0 for the empty schedule).
    The arrays are read-only: schedules share them, so a caller must never
    write to one. *)

val make : send list -> t
(** Sort the sends into (start, finish) order, keeping the list order of
    equal pairs. Raises [Invalid_argument] on a send with a negative start,
    a finish before its start, or a time that is not finite. *)

val of_arrays :
  chunk:int array ->
  edge:int array ->
  src:int array ->
  dst:int array ->
  start:float array ->
  finish:float array ->
  t
(** {!make} over parallel arrays, which the schedule then owns. Sends
    already in order are not moved; otherwise they are stable-sorted. Raises
    [Invalid_argument] as {!make} does, or when the lengths differ. *)

val empty : t
val num_sends : t -> int

val get : t -> int -> send
(** [get t i] is send [i], as a record. *)

val sends : t -> send list
(** The sends in order, as a list built on each call: for readers that are
    not on a hot path. *)

val eps_for : float -> float
(** Magnitude-scaled tolerance for floating-point time comparisons:
    [1e-9 + 1e-9 * |t|]. Shared by the validator and the router's
    reservation calendars so "free slot" and "congestion-free" agree. *)

val shift : t -> float -> t
(** Translate every send in time. The sends keep their order unless
    rounding turns two times into a tie, and only then are they re-sorted.
    Raises [Invalid_argument] as {!make} does when a start turns negative. *)

val reverse : t -> t
(** Time-mirror the schedule and swap each send's direction, keeping the
    link id — the §IV-E reversal that turns an All-Gather on the reversed
    topology into a Reduce-Scatter on the original one (Fig. 11). *)

val concat : t -> t -> t
(** [concat a b] runs [b] after [a] ([b] shifted by [a.makespan]) — how
    All-Reduce is assembled from Reduce-Scatter and All-Gather. Only tests call
    it: test_schedule_equiv's "concat matches" pins it against the list-sort
    reference. *)

val union : t -> t -> t
(** [union a b] overlays two schedules as-is (no shifting or relabelling):
    [merge [(a, None); (b, None)]]. The caller is responsible for the parts
    being disjoint in link occupancy where they overlap in time. *)

type relabel = { npu_of : int array; link_of : int array; chunk_of : int array }
(** Id tables a merged run is read through: its send of chunk [c] over link
    [e] from NPU [s] to NPU [d] is written as one of chunk [chunk_of.(c)]
    over link [link_of.(e)] from [npu_of.(s)] to [npu_of.(d)], at the same
    times. *)

val merge : (t * relabel option) list -> t
(** Stable k-way merge of schedules, each read through its relabelling when
    it has one: the sends of all of them in (start, finish) order, equal
    pairs in their schedule's order and the earlier schedule first — the
    order {!make} gives their concatenated (relabelled) send lists. Every
    send is written once, straight into the result's arrays. One heap step
    emits the whole stretch of a schedule's sends that precede every other
    schedule's next send, so the merge costs O(n + s log k) for [n] sends
    of [k] schedules that interleave in [s] such stretches: identical
    schedules cost one step per stretch of equal times, and two schedules
    wholly ordered in time cost two. The makespan is the largest one. *)

val phase_of_send : reduce_scatter:t -> send -> string
(** Which phase of a {!concat}-assembled All-Reduce a send belongs to:
    ["all-gather"] when it starts at or after the Reduce-Scatter makespan
    (within {!eps_for}), ["reduce-scatter"] otherwise. Used to tag engine
    transfers so the critical-path analyzer can attribute the makespan per
    collective phase. *)

val validate_positioned :
  Topology.t ->
  ?forbidden:(int * float) list ->
  precondition:(int * int) list ->
  postcondition:(int * int) list ->
  num_chunks:int ->
  chunk_size:float ->
  t ->
  (unit, string) result
(** The validator of {!validate} against explicit [(npu, chunk)] position
    lists instead of a {!Spec.t}-derived pre/postcondition — the form used by
    mid-flight schedule repair, where the "precondition" is wherever the
    chunks actually were when the fault landed. Non-combining semantics.
    [forbidden] lists [(link, dead_from)] pairs: a send overlapping a link's
    dead interval fails validation, which lets composite repaired schedules
    (kept prefix + patches) validate on the {e healthy} topology. Only tests
    call it: test_schedule_equiv's "validate_positioned matches" pins it against
    the reference validator. *)

val validate_reduction :
  Topology.t ->
  ?forbidden:(int * float) list ->
  contributions:(int * int) list ->
  postcondition:(int * int) list ->
  num_chunks:int ->
  chunk_size:float ->
  combining:t ->
  pull:t ->
  unit ->
  (unit, string) result
(** Reduction-aware positional validation — the validator mid-flight repair
    of combining collectives uses. [contributions] lists [(npu, chunk)]:
    which ranks contribute an input to each chunk (each NPU starts holding
    exactly its own contribution). The plan is structural: [combining] sends
    move partial sums — the source's accumulated contribution set is spent at
    the send's start and merged (checked disjoint, so no contribution is
    absorbed twice) into the destination at its finish; [pull] sends
    replicate fully-reduced values — the source must hold every contribution
    when the send starts. Both schedules share one clock, so kept prefixes
    and repair patches from several fault epochs validate as one composite.
    Physical legality (links exist, α-β durations, one chunk per link at a
    time, [forbidden] intervals) is checked over the union. The
    [postcondition] requires the named NPUs to hold the fully reduced chunk. *)

(** The replay {!validate_reduction} runs, exported so mid-flight repair can
    read the reduction state a kept prefix left behind: which contributions
    every surviving copy of a chunk holds. *)
module Reduction : sig
  type state
  (** Per (NPU, chunk) copy, the set of contributing ranks it has absorbed. *)

  val replay :
    Topology.t ->
    contributions:(int * int) list ->
    num_chunks:int ->
    chunk_size:float ->
    combining:t ->
    pull:t ->
    (state, string) result
  (** Replay [combining] and [pull] with {!validate_reduction}'s checks
      (every one but the postcondition, and no dead links) and return the
      state they leave. Each [(npu, chunk)] of [contributions] starts holding
      exactly its own contribution; for a pure-movement chunk, list its one
      initial holder, and a held copy is then "fully reduced", so one replay
      tracks positions for every supported pattern. [Error] carries the
      first failed check's message, the one {!validate_reduction} reports:
      only sends that are not a valid reduction fail. *)

  val is_full : state -> npu:int -> chunk:int -> bool
  (** Has the copy at [npu] absorbed every contribution of [chunk]? *)

  val positions : state -> (int * int) list
  (** Every fully reduced copy as [(npu, chunk)], in index order: the
      precondition of a repair goal. *)

  val partials : state -> (int * int * int list) list
  (** Every strictly partial, non-empty copy as [(npu, chunk, absorbed)],
      in index order: the partial sums of a repair goal. On a valid replay
      a chunk's partials are pairwise disjoint, and when the chunk has no
      full copy they cover its contributors. *)
end

val validate : Topology.t -> Spec.t -> t -> (unit, string) result
(** Check physical legality and semantic correctness:
    - every send's link exists and matches its endpoints;
    - a send's duration covers the α-β cost of one chunk;
    - no two sends overlap on the same link;
    - the chunk is present at the source when a send starts (causality from
      the precondition plus earlier receives);
    - the postcondition holds at the end.
    Combining patterns are checked by validating the reversed schedule against
    the reversed spec on the reversed topology. For the composite
    [All_reduce] use {!validate_all_reduce}. *)

val validate_all_reduce :
  Topology.t -> Spec.t -> reduce_scatter:t -> all_gather:t -> (unit, string) result
(** Validate an All-Reduce assembled as a Reduce-Scatter phase followed by an
    All-Gather phase (the All-Gather is expected to start after the
    Reduce-Scatter's makespan, as produced by {!concat}). *)

(** {1 Analyses} *)

val link_bytes : Topology.t -> chunk_size:float -> t -> float array
(** Total bytes carried per link id (Fig. 1 heat maps). *)

val link_busy_seconds : Topology.t -> t -> float array

val utilization_timeline : Topology.t -> bins:int -> t -> (float * float) list
(** [(bin_end_time, fraction_of_links_busy)] averaged per bin over the
    schedule's makespan (Figs. 16b, 18). *)

val average_utilization : Topology.t -> t -> float
(** Mean fraction of links busy over the makespan. *)

val chunk_path : t -> int -> send list
(** The sends that move one chunk, in time order — its static route. *)

val pp_events : Format.formatter -> t -> unit
(** Human-readable event listing, one line per send. *)

val of_json : string -> (t, string) result
(** Load a schedule previously written by {!to_json} (or hand-authored in
    the same shape) — the import path a CCL-facing deployment would use.
    The collective metadata, if present, is ignored; only the send list is
    read. [of_json text] is {!of_json_value} of [Json.parse text]. *)

val of_json_value : Tacos_util.Json.t -> (t, string) result
(** {!of_json} of a document already parsed: the sends of its ["sends"]
    array, in the document's order, through {!of_arrays}. Every error of
    {!of_json} but a parse error is returned the same. [of_json_value
    (to_json_value ~spec t)] has [t]'s arrays. *)

val to_json : ?spec:Spec.t -> t -> string
(** Serialize the schedule for consumption by an external CCL runtime (in
    the spirit of MSCCL-style algorithm files): a JSON object with the
    collective metadata (when [spec] is given) and the flat send list
    [{chunk, src, dst, link, start, finish}]. Times are seconds. *)

val to_json_value : spec:Spec.t -> t -> Tacos_util.Json.t
(** The document {!to_json} prints with the collective metadata, as a
    value: [Json.parse (to_json ~spec t) = Ok (to_json_value ~spec t)],
    with every number bit-identical, -0. included (times print with
    [%.17g], which round-trips any finite float). The registry and the
    [export] verb embed it without printing and re-reading it.
    test_registry's "entry bytes match the parse formula" pins the
    agreement on random schedules and specs. *)
