(** Wall-clock span timing for profiling: start a span, read its elapsed
    seconds. Spans are clamped to be non-negative, so a clock stepping
    backwards mid-span reads as zero rather than a negative duration. *)

type span

val now : unit -> float
(** Current wall-clock time in seconds since the epoch. *)

val start : unit -> span
(** Begin a span at [now ()]. *)

val elapsed : span -> float
(** Seconds since the span started; never negative. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed seconds. Only
    tests call it: test_util's "time wrapper". *)
