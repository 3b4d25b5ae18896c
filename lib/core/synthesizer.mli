(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** The TACOS synthesizer (§IV, Algorithms 1 and 2).

    Given a network topology and a collective spec, TACOS synthesizes a
    topology-aware collective algorithm by repeatedly maximizing the number
    of link-chunk matches over an implicitly expanded time-expanded network:

    - the clock advances through event times (a link becoming free, a chunk
      arriving);
    - at each event time the idle links are matched against the unsatisfied
      postconditions — a link [(s → d)] can carry chunk [c] if [s] already
      holds [c] and [d] still wants it;
    - lower-cost links are matched first (§IV-F) and remaining choices are
      randomized;
    - each physical link carries at most one chunk at a time, so the
      resulting algorithm is congestion-free, and since only neighbor
      transfers are scheduled it is deadlock-free (§IV-E).

    Reduction collectives are synthesized on the reversed topology and
    time-mirrored (§IV-E, Fig. 11); All-Reduce is a Reduce-Scatter phase
    followed by an All-Gather phase.

    The matching loop is the event-driven generalization of the span-discrete
    formulation in the paper (which {!Reference} implements literally): on a
    homogeneous topology every link costs the same, event times collapse onto
    the span grid, and the two coincide. *)

type stats = {
  wall_seconds : float;  (** synthesis wall-clock time *)
  rounds : int;  (** distinct event times processed (TEN spans when homogeneous) *)
  matches : int;  (** link-chunk matches made *)
  trials : int;  (** randomized restarts evaluated *)
}

type result = {
  spec : Spec.t;
  schedule : Schedule.t;
  collective_time : float;  (** the schedule's makespan *)
  phases : (Schedule.t * Schedule.t) option;
      (** for All-Reduce: the (Reduce-Scatter, All-Gather) phases, with the
          All-Gather already shifted to start at the Reduce-Scatter's end *)
  stats : stats;
}

exception Unsupported of string
(** Raised for patterns the matching formulation does not cover
    (Gather/Scatter — the paper targets the patterns of Table III). *)

exception Stuck of string
(** Raised when the collective cannot complete on this fabric. Detected
    promptly, before any matching work: when the topology is not strongly
    connected, the unsatisfiable postconditions (those no initial holder of
    the chunk can reach) are computed and a bounded sample of them is named
    in the message. A not-strongly-connected fabric whose postconditions are
    all still reachable (e.g. Broadcast from a root that reaches everyone)
    synthesizes normally. Also raised, as a safety net, if the matching loop
    ever runs out of events with postconditions left.

    Callers that must never see this exception — degraded-fabric pipelines —
    should go through [Tacos_resilience.Resilience.synthesize], which turns
    it into a structured fallback ladder. *)

exception Deadline_exceeded
(** Raised when a [?deadline] passes mid-synthesis. The check is
    cooperative — polled once per expansion round, between rounds — so the
    raise is prompt (a round is bounded work) and never surfaces a partial
    schedule: a synthesis either returns a complete, verifiable result or
    raises. Serving layers catch this to degrade gracefully
    ([Tacos_resilience.Resilience.synthesize] turns it into a baseline
    fallback rung). *)

type constraints = {
  forbid : int list;  (** link ids that must carry nothing *)
  prefer : (int * float) list;
      (** [(link, weight > 0)]: the link's §IV-F ordering cost is divided by
          [weight], so weighted links sort — and therefore match — first.
          Weights bias the match order only; transfer durations are
          untouched. *)
  pin : (int * int list) list;
      (** [(chunk, route)]: the chunk may only travel the route's link ids.
          Pinning the same chunk twice intersects the routes. *)
}
(** The matcher-facing compilation target of a communication sketch. Build
    one by hand for programmatic use, or let [Tacos_sketch.Sketch.compile]
    produce a structurally validated record (unknown ids, contradictions and
    sketch-induced disconnections surface there as a typed [Infeasible]; the
    synthesizer itself only range-checks and raises [Invalid_argument]). *)

val no_constraints : constraints
(** The empty record: [synthesize ~sketch:no_constraints] is bit-identical
    to not passing a sketch at all (same RNG draw sequence). Outside this module
    only tests use it: test_sketch's "empty sketch is identity" pins that
    bit-identity. *)

val synthesize :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?prefer_cheap_links:bool ->
  ?deadline:Tacos_util.Deadline.t ->
  ?sketch:constraints ->
  Topology.t ->
  Spec.t ->
  result
(** [synthesize topo spec] runs [trials] (default 1) randomized syntheses
    from [seed] (default 42) and keeps the schedule with the smallest
    makespan. Supported patterns: All-Gather, Broadcast, Reduce-Scatter,
    Reduce, All-Reduce.

    [domains] (default 1) spreads the trials over the shared
    {!Tacos_util.Pool} (grown to at least [domains] workers) — the
    multicore counterpart of the paper's 64-thread synthesis runs. Trial
    seeds are pre-drawn and results are merged in trial order, so the
    outcome is bit-identical for a given [seed] regardless of [domains].
    The pool is shared with [Tacos_groups.Plan]'s sub-synthesis fan-out,
    so trial- and group-parallelism draw from one worker budget.

    [prefer_cheap_links] (default [true]) is the §IV-F heterogeneous-network
    heuristic: idle links are matched cheapest-first. Turning it off matches
    links in random order, the ablation of the bench harness.

    [deadline] (default none) bounds the synthesis wall clock: every trial
    polls it between expansion rounds and the whole call raises
    {!Deadline_exceeded} once it passes — with parallel trials the raise
    propagates through the pool's futures, so no partial best-of-trials
    merge ever escapes. A deadline far in the future leaves the result
    bit-identical to not passing one.

    [sketch] (default {!no_constraints}) constrains the matching loop:
    forbidden links never become free, so they are absent from the idle-link
    candidate scan (and from the resulting schedule — All-Reduce applies the
    same link ids to both mirrored phases); preferred links sort earlier in
    the §IV-F cheapest-first order by their weight; pinned chunks are
    filtered to their route inside the chunk scan. A sketch that forbids
    every path to some postcondition raises {!Stuck} here — use
    [Tacos_sketch.Sketch.compile] to get the typed [Infeasible] instead,
    before synthesis starts. *)

type goal = {
  num_chunks : int;
  chunk_size : float;  (** bytes per chunk *)
  precondition : (int * int) list;
      (** [(npu, chunk)] fully-formed copies held at t = 0 *)
  postcondition : (int * int) list;  (** [(npu, chunk)] required at the end *)
  contributors : (int * int) list;
      (** [(npu, chunk)]: the ranks whose input each chunk reduces over.
          Empty for a pure-movement (non-combining) goal. *)
  partials : (int * int * int list) list;
      (** [(npu, chunk, absorbed)]: an in-flight partial sum — a copy of
          [chunk] at [npu] that has absorbed exactly the contributions of the
          ranks in [absorbed]. Per chunk, the live partials' absorbed sets
          must be pairwise disjoint and (when no fully-reduced copy exists)
          jointly cover the contributor set — the invariant reduction replay
          maintains. Empty for non-combining goals. *)
}
(** A synthesis goal in positional form, untied from any collective pattern:
    where the chunks are, what reduction state they carry, and where they
    must end up. This is the entry point mid-flight schedule repair uses —
    the precondition lists the positions chunks had actually reached when a
    fault landed, [partials] the reduction state replayed from the kept
    sends, and the postcondition the still-unmet part of the collective. *)

val goal_of_spec : Spec.t -> goal
(** The goal a spec's pattern lowers to: {!Spec.precondition} /
    {!Spec.postcondition} verbatim, with no reduction state. For [All_reduce]
    this is the Reduce-Scatter precondition against the All-Gather
    postcondition — not directly synthesizable as one pull goal; split into
    phases instead. [Tacos_sketch.Sketch.compile] lowers each phase with it
    for {!unreachable}. *)

val unreachable :
  Topology.t -> dead:int list -> pin:(int * int list) list -> goal -> (int * int) list
(** The feasibility walk: the postconditions [(npu, chunk)] of [goal], in
    postcondition order, that no precondition holder of the chunk reaches
    over [topo]'s links outside [dead]. A [pin] [(chunk, route)] further
    limits that chunk to the route's link ids; pinning a chunk twice
    intersects the routes, as in {!constraints}. Synthesis raises {!Stuck}
    naming these pairs, and [Tacos_sketch.Sketch.compile] reports the first
    as its [Disconnected] offender, walking a reduction phase on
    [Topology.reverse topo] (which keeps link ids). Raises
    [Invalid_argument] on a dead link id out of range. *)

type plan = { combining : Schedule.t; pull : Schedule.t }
(** A reduction-aware repair plan on one clock: [combining] sends move
    partial sums (each source's accumulated contributions are spent into the
    destination), [pull] sends replicate fully-reduced values, shifted to
    start after [combining] completes. Validate with
    {!Schedule.validate_reduction}; for non-combining goals [combining] is
    empty and the plan degenerates to a pull schedule. *)

val synthesize_goal_plan :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?reuse:Tacos_ten.Ten.Expansion.t ->
  ?dead:int list ->
  ?slowed:(int * float) list ->
  Topology.t ->
  goal ->
  plan * stats
(** [synthesize_goal_plan topo goal] synthesizes directly from a positional
    goal — the entry point of mid-flight repair. It runs [trials] (default 1)
    randomized syntheses from [seed] (default 42) and keeps the smallest
    combined makespan; [domains] parallelizes the trials on the shared pool
    with the same determinism guarantee as {!synthesize}. Duplicate
    precondition entries are tolerated (repair goals merge phase
    preconditions with kept deliveries).

    Chunks may carry in-flight partial sums. Per chunk with two or more live
    partials, a combine destination is chosen (the unique postcondition
    holder when there is one — Reduce-Scatter/Reduce repair — else the
    partial holding the most contributions), and the partials flow to it
    along a relay closure of shortest paths, synthesized as a pull on the
    reversed fabric and time-mirrored (§IV-E) — so every relay's receives
    finish before its one send starts, the exact combining semantics. The
    pull phase then spreads fully-reduced copies to the remaining
    postconditions. A goal with no partials draws the same random stream
    as a plain pull synthesis: [combining] is empty and [pull] is the
    matching loop's schedule.

    [reuse] synthesizes over a cached {!Tacos_ten.Ten.Expansion} of [topo]
    instead of re-materializing the per-link arrays (each reusing trial bumps
    the [synth.repair_ten_reuse] counter). [dead] masks links out of the
    search by their ids in [topo]'s (healthy) id space — the resulting
    schedule never touches them, and an empty mask leaves the RNG draw
    sequence bit-identical to the unmasked path. [slowed] scales the α-β
    cost of links by a factor [>= 1] (degraded links). Together these let
    repair plan on the degraded fabric while staying in healthy link ids.

    Raises [Stuck] when a partial or postcondition is unreachable on the
    masked fabric, [Invalid_argument] on out-of-range NPU/chunk ids,
    nonpositive sizing, or malformed reduction state (a contribution
    absorbed twice, live partials that do not cover the contributor set, or
    a chunk with both a full copy and live partials). *)

val verify : Topology.t -> result -> (unit, string) Stdlib.result
(** Re-validate a synthesis result against its spec (physical legality +
    pre/postconditions), dispatching to the right validator per pattern. *)
