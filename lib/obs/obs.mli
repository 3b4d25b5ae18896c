(** Lightweight observability substrate: counters, running-max gauges,
    log-scale histograms and span timers behind one global registry that is
    OFF by default. Structured events go to {!Trace}.

    When disabled (the default) every record operation is a single atomic
    flag load and a branch, so the synthesizer and simulator hot paths stay
    permanently instrumented at effectively zero cost. All metric state is
    domain-safe (synthesis trials run on multiple domains). Snapshots
    serialize to {!Tacos_util.Json} for the CLI [profile] subcommand and the
    [BENCH_*.json] benchmark rows. *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric. Metric identities survive: handles
    interned before [reset] remain valid. *)

(** {1 Recording context}

    {!Trace} events are stamped with the emitting domain id; synthesis
    additionally tags each record with the trial index it is working on, so
    concurrent multi-domain trials stay attributable in the shared buffer. *)

val with_trial : int -> (unit -> 'a) -> 'a
(** Run the thunk with the current domain's trial context set to [i];
    restored (to the previous value) afterwards, even on raise. *)

val current_trial : unit -> int option
(** The trial context of the calling domain, if inside {!with_trial}. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Intern by name: the same name always yields the same counter. Raises
    [Invalid_argument] if the name is registered as another metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Current value (readable even while disabled). *)

(** {1 Gauges (running maximum)} *)

type gauge

val gauge : string -> gauge
val observe_max : gauge -> float -> unit

val gauge_value : gauge -> float
(** Largest observation since the last {!reset}; 0 when none. Outside this
    module only tests call it: test_obs's "counter and gauge". *)

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one observation: exact count/sum/min/max plus a power-of-two
    magnitude bucket. *)

(** {1 Span timers} *)

type timer

val timer : string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall-clock duration as a histogram
    observation (in seconds) when enabled; a plain call when disabled. *)

(** {1 Snapshot} *)

val snapshot : unit -> Tacos_util.Json.t
(** All registered metrics as one JSON object with [counters], [gauges],
    [histograms] and [timers] sections, each sorted by metric name. *)
