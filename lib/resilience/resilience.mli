(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

module Synth := Tacos.Synthesizer
module Algo := Tacos_baselines.Algo
module Engine := Tacos_sim.Engine

(** Graceful degradation around the synthesizer (the paper's §III/§VII
    resilience argument, made operational).

    {!synthesize} never lets {!Tacos.Synthesizer.Stuck} or
    [Unsupported] escape. It walks a documented fallback ladder:

    + synthesize on the (possibly fault-injected) fabric;
    + on [Stuck], retry with a reseeded search, bounded by a retry count
      and a wall-clock budget;
    + when synthesis is out of options, fall back to the best *feasible*
      baseline algorithm ({!Tacos_baselines.Algo.best_feasible});
    + otherwise return a structured {!failure} naming the stage that gave
      up, the surviving component, and — when faults were injected — the
      specific fault that disconnected the fabric.

    Every rung activation is counted in the {!Tacos_obs.Obs} registry
    ([resilience.*] counters), so a fleet running thousands of degraded
    syntheses can see how often it is living on fallbacks. *)

(** {1 Degraded synthesis} *)

type plan =
  | Synthesized of Synth.result
      (** a TACOS schedule for the degraded fabric (verified by the caller
          via {!Tacos.Synthesizer.verify} like any other result) *)
  | Baseline of { algo : Algo.t; report : Engine.report }
      (** no schedule could be synthesized; the named baseline is the best
          feasible stand-in, with its simulated execution *)

type outcome = {
  plan : plan;
  simulated_time : float;
      (** congestion-aware simulated completion time on the degraded fabric
          (the apples-to-apples number: schedules are replayed under the
          same engine the baselines run on) *)
  retries : int;  (** reseeded synthesis attempts beyond the first *)
  rungs : string list;
      (** human-readable ladder rungs activated, in order — ["synthesized"],
          ["reseed(2)"], ["baseline Ring"], ... *)
  wall_seconds : float;
}

type failure = {
  stage : string;  (** ladder stage that gave up: "faults", "connectivity", "synthesis", "baseline" *)
  message : string;
  connectivity : Fault.connectivity;  (** of the degraded fabric *)
  disconnecting : Fault.t option;
      (** first injected fault that broke strong connectivity, when faults
          were given and one did *)
  deadline_slack_ms : float option;
      (** milliseconds left on the effective deadline (budget and/or
          caller deadline) when the ladder gave up — negative when the
          failure was reported past it; [None] when the call was
          unbounded *)
}

val pp_failure : Format.formatter -> failure -> unit

val failure_to_json : failure -> Tacos_util.Json.t

val synthesize :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?budget_ms:float ->
  ?deadline:Tacos_util.Deadline.t ->
  ?max_retries:int ->
  ?baselines:Algo.t list ->
  ?faults:Fault.t list ->
  Topology.t ->
  Spec.t ->
  (outcome, failure) result
(** [synthesize topo spec] runs the fallback ladder above. [faults]
    (default none) are applied to [topo] first — pass the healthy topology
    and the fault set rather than pre-degrading, so failures can name the
    disconnecting fault. [max_retries] defaults to 3; [baselines]
    defaults to {!Tacos_baselines.Algo.all}. All-to-All specs dispatch to
    {!Tacos.Router.synthesize}. [domains] (default 1) parallelizes each
    attempt's trials on the shared {!Tacos_util.Pool}; the ladder's outcome stays
    deterministic for a given [seed]. Never raises [Stuck]/[Unsupported].

    Time bounds are {e cooperative all the way down}: [budget_ms] (default
    unlimited, relative to the call) and [deadline] (default none,
    absolute) combine into an effective deadline — whichever is earlier —
    that is checked before every rung {e and} threaded into each
    synthesis attempt's round loop, so a single oversized trial aborts
    promptly ({!Tacos.Synthesizer.Deadline_exceeded}) instead of
    overshooting the budget unboundedly. An exceeded deadline degrades to
    the best-feasible-baseline rung (counted under
    [resilience.deadline_exceeded]); a structured {!failure} reports the
    remaining slack as [deadline_slack_ms]. *)

(** {1 Degradation analysis (§VII, quantitative)}

    Given a schedule synthesized on the {e healthy} fabric and a fault set,
    classify whether that schedule still makes sense and measure what
    re-synthesis buys — the paper's resilience claim as a number. *)

type health =
  | Intact  (** every link the schedule uses survives at full capability *)
  | Degraded_timing of { links : int list }
      (** all links survive, but the listed (healthy-id) links got slower:
          the schedule's timestamps are stale, though its routes remain
          executable *)
  | Broken of { links : int list; lost_sends : int }
      (** [lost_sends] sends ride the listed dead links: the schedule is
          infeasible as routed and must be rerouted or re-synthesized *)

type analysis = {
  health : health;
  replay_time : float option;
      (** the healthy schedule's sends replayed on the degraded fabric (the
          engine reroutes dead hops store-and-forward); [None] when some
          send's endpoints can no longer reach each other *)
  resynth : (outcome, failure) result;
      (** the fallback ladder run on the degraded fabric *)
  resynth_time : float option;  (** [resynth]'s simulated time, when Ok *)
  advantage : float option;
      (** [replay_time /. resynth_time] — above 1.0, re-synthesis wins *)
}

val analyze :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?budget_ms:float ->
  Topology.t ->
  Fault.t list ->
  Synth.result ->
  analysis
(** [analyze healthy_topo faults healthy_result]. *)

val health_to_string : health -> string

(** {1 Mid-flight schedule repair}

    The timed counterpart of {!analyze}: the fault lands at [at] seconds into
    an executing healthy schedule. Instead of discarding the collective,
    {!repair} keeps every send that finished before the fault, replays the
    kept prefix through the {!Reduction} tracker to recover both chunk
    positions {e and} in-flight partial sums, and re-synthesizes only the
    still-unmet remainder as a reduction-aware positional goal
    ({!Tacos.Synthesizer.synthesize_goal_plan}) — over the healthy fabric's
    cached TEN expansion with the dead links masked, so repair stays in the
    healthy link-id space and its search scales with the unmet suffix, not
    the fabric ([synth.repair_ten_reuse] counts the reuse).

    {!repair_timeline} folds the same step over a multi-epoch fault
    timeline, re-repairing the previously repaired composite at each epoch
    ([resilience.epoch.*] counters tally per-epoch strategies). *)

type strategy =
  | Suffix of {
      kept_sends : int;  (** sends of the pre-fault composite that survived *)
      replanned : int;  (** sends in the newly synthesized patch *)
      schedule : Schedule.t;
          (** the patch ([plan]'s phases overlaid): {e healthy}-topology link
              ids, fault-relative times (t = 0 is the fault) *)
      plan : Synth.plan;
          (** the patch split into combining / pull phases — combining sends
              merge surviving partial sums, pull sends spread full copies *)
    }
  | Complete_already
      (** every postcondition was met before the fault — nothing to do *)
  | Full of { reason : string; outcome : outcome }
      (** suffix repair does not apply (no phase split, pairwise semantics,
          or a stuck patch synthesis); the full fallback ladder ran instead *)

type repaired = {
  strategy : strategy;
  completion_time : float;
      (** absolute completion of the patched collective: fault time + the
          repair's simulated time on the degraded fabric (for
          [Complete_already], when the last kept send finished) *)
  synth_wall_seconds : float;  (** wall clock spent re-synthesizing *)
  verified : (unit, string) result;
      (** the composite (kept prefix + patch) re-validated end to end on the
          {e healthy} topology via
          {!Tacos_collective.Schedule.validate_reduction}, with dead links
          forbidden from the fault time onward *)
}

val strategy_name : strategy -> string
(** ["suffix"], ["complete"] or ["full"]. *)

val repair :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?budget_ms:float ->
  ?reuse:Tacos_ten.Ten.Expansion.t ->
  at:float ->
  Topology.t ->
  Fault.t list ->
  Synth.result ->
  (repaired, failure) result
(** [repair ~at healthy_topo faults healthy_result]. Suffix repair applies to
    All-Gather, Broadcast, Reduce-Scatter, Reduce, and All-Reduce — including
    faults inside the reduce-scatter phase, whose in-flight partial sums are
    re-seeded as reduction state rather than punted to full re-synthesis.
    All-to-All and rooted Gather/Scatter go through the {!synthesize}
    fallback ladder ([Full]), as does a stuck patch synthesis. [reuse]
    passes a cached {!Tacos_ten.Ten.Expansion} of the healthy topology
    (prepared internally otherwise — share one across repeated repairs). A
    fault set that strands some unmet postcondition yields a structured
    [Error] — never an exception. Raises [Invalid_argument] only on
    [at < 0]. *)

(** {1 Multi-epoch repair} *)

type epoch = { at : float; faults : Fault.t list; repaired : repaired }
(** One fault epoch's structured outcome: what landed at [at] and how the
    then-current composite was repaired. *)

type timeline_repair = {
  epochs : epoch list;  (** per-epoch outcomes, in time order *)
  combining : Schedule.t;
      (** final composite's combining phase: healthy link ids, absolute
          times, spanning kept healthy sends and every epoch's patches *)
  pull : Schedule.t;  (** final composite's pull phase, same clock *)
  schedule : Schedule.t;  (** the two phases overlaid *)
  completion_time : float;  (** the last epoch's completion time *)
  verified : (unit, string) result;
      (** the final composite validated end to end
          ({!Tacos_collective.Schedule.validate_reduction}) with every dead
          link forbidden from its kill time *)
}

val repair_timeline :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?budget_ms:float ->
  ?reuse:Tacos_ten.Ten.Expansion.t ->
  events:(float * Fault.t list) list ->
  Topology.t ->
  Synth.result ->
  (timeline_repair, failure) result
(** [repair_timeline ~events healthy_topo healthy_result] folds {!repair}'s
    epoch step over a fault timeline [(at1, faults1); (at2, faults2); ...]
    (validated by {!Fault.validate_events}: non-negative, strictly
    increasing, no epoch re-killing an already-dead link). Each epoch
    recomputes positions and partial sums from the {e repaired} composite of
    the previous epochs and repairs the repaired suffix; fault state (dead,
    slowed, forbidden intervals) accumulates across epochs. A full
    re-synthesis epoch restarts the collective on the degraded fabric and is
    lifted back into healthy link ids so later epochs keep folding; a
    baseline fallback carries no schedule and stops the fold with a
    structured failure. One TEN expansion ([reuse], prepared internally
    otherwise) serves every epoch. Raises [Invalid_argument] on an empty
    [events] list. *)
