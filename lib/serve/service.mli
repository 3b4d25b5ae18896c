module Deadline := Tacos_util.Deadline
module Topology := Tacos_topology.Topology
module Spec := Tacos_collective.Spec
module Synth := Tacos.Synthesizer
module Registry := Tacos.Registry

(** The synthesis service: a persistent, deadline-aware front end over the
    schedule {!Tacos.Registry}.

    One {!t} holds the shared cache and the serving counters; transports
    ([tacos serve --stdio] / [--socket]) feed it request lines from any
    number of threads and write back the response line {!handle_line}
    returns. The request lifecycle is robust end to end:

    - {e admission}: at most [queue_limit] requests are in flight; beyond
      that, requests are shed immediately with a structured
      [overloaded] response carrying a retry-after hint (an EMA of recent
      request latencies), never queued unboundedly.
    - {e coalescing}: each request makes one registry lookup, and
      identical concurrent misses collapse into one synthesis (and one disk
      load) through its single-flight path; a synthesis that raises
      releases the key, so a later retry is clean.
    - {e deadlines}: each request's [deadline_ms] (or the configured
      default) is propagated as a cooperative check into the synthesizer's
      round loop. When it expires mid-synthesis the service {e degrades
      gracefully}: it answers with the best feasible baseline via the
      {!Tacos_resilience.Resilience} ladder, tagged [degraded:true],
      instead of timing out. Cache hits are served even past the deadline
      — they are effectively free.
    - {e crash safety}: registry disk entries are checksummed and written
      atomically; corrupt files found on load are quarantined to
      [*.corrupt] and re-synthesized, never fatal.

    Every lifecycle event is counted once, in always-on plain counters
    read by {!stats}, the [stats] op and {!metrics}: admission
    ([accepted]), an expired deadline ([deadline_missed]), and the one
    outcome each response ends in — [hit], [miss], [degraded], [error],
    [shed], or [ok] for the control verbs, which has no counter. The
    access log names that same outcome, so its tallies match the
    counters.

    On top of the counters sits the telemetry layer: every request's
    end-to-end latency lands in a per-verb {!Tacos_obs.Quantile} sketch
    (with queue-wait, synthesis, and export stage sketches alongside),
    {!metrics} renders the whole registry as Prometheus text (also served
    by the [metrics] protocol verb), and a configurable access-log sink
    receives one logfmt record per request — stamped with the monotonic
    span since server start, so bursts of sheds and deadline expiries are
    reconstructible on a timeline. *)

type config = {
  queue_limit : int;  (** max in-flight requests before shedding (default 16) *)
  domains : int;  (** worker domains for miss synthesis (default 1) *)
  trials : int;  (** randomized trials per synthesis (default 1) *)
  default_deadline_ms : float option;
      (** deadline for requests that carry none (default: unbounded) *)
  registry_dir : string option;  (** persistent cache directory *)
  max_disk_bytes : int option;
      (** disk cap for the persistent cache: past it, the oldest-mtime
          entries are evicted after every write (counted in {!stats} and
          as [tacos_registry_evicted_total]). Default: unbounded. *)
  seed : int;  (** seed for requests that carry none (default 42) *)
  access_log : (string -> unit) option;
      (** per-request logfmt record sink (default none). Records look like
          [t=12.081310 id=7 verb=synthesize outcome=hit elapsed_ms=0.113
          deadline_ms=500 slack_ms=499.887 bytes_out=133]: the monotonic
          span since server start, the echoed request id ([-] when
          absent), the verb ([invalid] for unparseable lines), the
          lifecycle outcome ([hit], [miss], [degraded], [shed], [error],
          or [ok] for control verbs), latency, the applied deadline and
          the slack left at completion (present only when a deadline
          applied), and the response size. Calls are serialized by the
          service; the sink itself need not be thread-safe. *)
}

val default_config : config

type backend =
  deadline:Deadline.t option ->
  sketch:Synth.constraints option ->
  seed:int ->
  domains:int ->
  Topology.t ->
  Spec.t ->
  Synth.result
(** The synthesis function run on a cache miss. The default is
    {!Tacos.Router.synthesize_any} with the configured trials and the
    deadline and the compiled communication sketch threaded through
    (sketched routed requests are rejected upstream at sketch
    compilation). Tests and benches inject stubs — a backend that blocks,
    fails once, or sleeps. *)

type t

val create : ?config:config -> ?synthesize:backend -> unit -> t
(** A fresh service. Safe to drive from multiple threads/domains. *)

type stats = {
  accepted : int;  (** requests admitted past the queue gate *)
  shed : int;  (** requests refused with [overloaded] *)
  hits : int;  (** answered from the cache (memory, disk, or coalesced) *)
  misses : int;
      (** answered by running a synthesis: the miss backend, a tune, or
          the resilience ladder after the backend failed *)
  degraded : int;  (** answered [degraded:true] via a baseline fallback *)
  deadline_missed : int;  (** requests whose deadline expired before an answer *)
  errors : int;  (** error responses (malformed, infeasible, internal) *)
  quarantined : int;  (** corrupt cache files set aside by this service's registry *)
  evicted : int;  (** cache files deleted to stay under the disk cap *)
  inflight : int;  (** requests currently past admission *)
  uptime_seconds : float;  (** monotonic span since [create] *)
  entries : int;  (** schedules cached in memory *)
  disk : Registry.disk_usage;  (** disk store size accounting *)
}

val stats : t -> stats

val uptime_seconds : t -> float
(** Monotonic seconds since [create] — the epoch of access-log [t=]
    stamps and metrics flushes. *)

val metrics : ?prefix:string -> t -> string
(** The telemetry registry as a Prometheus text-exposition document (it
    passes {!Tacos_obs.Expo.validate}): always-on serving families —
    [tacos_serve_requests_total{outcome=...}], per-verb
    [tacos_serve_latency_ms{verb=...}] quantile summaries, queue-wait /
    synthesis / export stage summaries, uptime, inflight, and the
    [tacos_registry_*] size gauges — followed by every metric registered
    in {!Tacos_obs.Obs}. [prefix] keeps only families whose rendered name
    starts with it. Also served by the [metrics] protocol verb (which
    bypasses admission: a saturated server must still be scrapable). *)

val handle_line : t -> string -> string
(** Process one request line, returning the one response line (no trailing
    newline). Never raises: malformed input, infeasible fabrics, expired
    deadlines, and internal errors all map to structured responses.

    Every call additionally records the request's end-to-end latency into
    the per-verb quantile sketches and, when [config.access_log] is set,
    emits one logfmt access record. *)
