(** Full-fidelity execution tracing: typed per-transfer lifecycle events
    (simulated time) and wall-clock spans (synthesis trials and rounds)
    behind one off-by-default atomic flag — the same zero-cost-when-disabled
    discipline as {!Obs}, on a separate switch so metrics can be collected
    without paying for the event stream.

    The simulator ({!Tacos_sim.Engine}) emits one {!lifecycle} event per
    state change of a message in flight; the synthesizer wraps each trial
    and matching round in a {!with_span}. Consumers are the Chrome
    trace-event exporter ({!Chrome}) and the critical-path analyzer
    ({!Critpath}).

    {2 Event schema}

    This is the single authoritative description of the lifecycle event
    schema; {!to_json} serializes exactly these fields (plus ["event"], the
    constructor name in snake_case; ["t"], the timestamp; ["domain"], the
    emitting domain id; and ["trial"], the synthesis trial index when one
    was set via {!Obs.with_trial}).

    - [Deps_ready {tid; cause}] — transfer [tid]'s last dependency
      completed (simulated time [t]); [cause] is that dependency's transfer
      id, [None] for root transfers ready at [t = 0].
    - [Enqueued {tid; link; node; depth}] — the message joined physical
      link [link]'s FCFS queue at [node]; [depth] messages were already
      waiting.
    - [Service_start {tid; link}] / [Service_end {tid; link}] — the link
      began / finished serializing the message.
    - [Service_aborted {tid; link}] — a link death cut the service short;
      the message is re-planned (a fresh [Enqueued] follows).
    - [Arrived {tid; node; link}] — propagation landed the message at
      [node], having ridden [link].
    - [Completed {tid}] — the transfer reached its destination (or was a
      local [src = dst] step whose dependencies completed).
    - [Rerouted {tid; node}] — the planned next hop rode only dead links;
      the remaining route was re-planned from [node].
    - [Stranded {tid; node; dst}] — no surviving route from [node] to
      [dst]; the transfer is abandoned.
    - [Fault {link; kind}] — a timed fabric change landed; [kind] is
      ["dies"], ["degrades"] or ["recovers"]. *)

type lifecycle =
  | Deps_ready of { tid : int; cause : int option }
  | Enqueued of { tid : int; link : int; node : int; depth : int }
  | Service_start of { tid : int; link : int }
  | Service_end of { tid : int; link : int }
  | Service_aborted of { tid : int; link : int }
  | Arrived of { tid : int; node : int; link : int }
  | Completed of { tid : int }
  | Rerouted of { tid : int; node : int }
  | Stranded of { tid : int; node : int; dst : int }
  | Fault of { link : int; kind : string }

type event = {
  t : float;  (** simulated seconds *)
  domain : int;  (** emitting domain id *)
  trial : int option;  (** synthesis trial index, when inside one *)
  ev : lifecycle;
}

type span = {
  name : string;  (** e.g. ["trial"], ["round"] *)
  domain : int;
  trial : int option;
  t0 : float;  (** wall-clock seconds since the last {!reset} *)
  t1 : float;
}

type dump = { events : event list; spans : span list; dropped : int }

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
(** Only tests call it, to leave recording off for the next case: test_trace's
    "disabled leaves the engine bit-identical". *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered records and restart the wall-clock span epoch. *)

(** {1 Recording} *)

val emit : t:float -> lifecycle -> unit
(** Append one lifecycle event at simulated time [t], stamped with the
    current domain id and trial context. A no-op when disabled; bounded —
    records past the cap count as dropped. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk, recording a wall-clock span (relative to the last
    {!reset}) when enabled; a plain call when disabled. The span is recorded
    even if the thunk raises. *)

(** {1 Reading} *)

val dump : unit -> dump
(** Everything buffered so far, in emission order. *)

val to_json : dump -> Tacos_util.Json.t
(** [{dropped; events; spans}] under the schema documented above — what
    [tacos profile --trace] embeds as ["lifecycle"]. *)
