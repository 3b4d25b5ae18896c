(** Streaming quantile sketch (DDSketch-style) with bounded memory and a
    relative-error guarantee.

    Observations are binned into logarithmically spaced buckets of ratio
    [gamma = (1 + accuracy) / (1 - accuracy)]; the estimate returned for any
    quantile is the representative value of the bucket holding the
    nearest-rank item, which is within [accuracy * v] of the true item [v]
    (for positive values, while no bucket collapse has occurred).

    Sketches over the same [accuracy] merge losslessly by bucket-wise count
    addition, which makes merging associative and commutative. Memory is
    bounded: past [max_buckets] distinct buckets the lowest buckets are
    collapsed together, degrading low quantiles first while keeping the
    upper tail (p90/p95/p99 — the ones the service reports) accurate.

    Not thread-safe: callers serialize access (the service records under its
    own lock). *)

type t

val create : ?accuracy:float -> ?max_buckets:int -> unit -> t
(** [accuracy] is the relative-error bound [alpha], default [0.01] (1%);
    must be in (0, 1). [max_buckets] caps distinct buckets, default 2048.
    Raises [Invalid_argument] outside those ranges. *)

val accuracy : t -> float
(** The sketch's relative accuracy. Outside this module only tests call it:
    test_telemetry's "estimates respect the rank-error bound". *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
(** Smallest observation; [nan] when empty. Only tests call it: test_telemetry's
    "empty sketch" and "merge is associative". *)

val max_value : t -> float
(** Largest observation; [nan] when empty. Only tests call it: test_telemetry's
    "merge is associative". *)

val add : t -> float -> unit
(** Record one observation. Non-positive (and sub-[1e-12]) values share a
    single exact zero bucket and are estimated as [0.]. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the q-quantile for [q] in [[0, 1]] using the
    nearest-rank convention (rank [ceil (q * count)], 1-based; [q = 0] is
    the minimum). Returns [nan] when the sketch is empty; raises
    [Invalid_argument] when [q] is outside [[0, 1]]. The estimate is clamped
    into [[min_value, max_value]]. Outside this module only tests call it:
    test_telemetry's "rank error on 1..1000" and "zero bucket". *)

val merge : t -> t -> t
(** A new sketch holding both inputs' observations; the inputs are not
    modified. Raises [Invalid_argument] when the accuracies differ. Only tests
    call it: test_telemetry's "merge is associative". *)

val summary : t -> (float * float) list
(** The service's standard reporting grid:
    [[(0.5, p50); (0.9, p90); (0.95, p95); (0.99, p99)]]. Empty list when
    the sketch is empty. *)
