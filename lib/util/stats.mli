(** Small numerical helpers used by the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values. *)

val stddev : float list -> float
(** Population standard deviation. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in \[0,100\], linear interpolation. *)

val linear_fit : (float * float) list -> float * float
(** Least-squares fit [y = a + b*x]; returns [(a, b)]. Outside this module only
    tests call it: test_util's "linear fit". *)

val loglog_exponent : (float * float) list -> float
(** Fit the exponent [k] of [y = c * x^k] from (x, y) samples with positive
    coordinates — used to verify the paper's O(n^2) synthesis-time claim. *)
