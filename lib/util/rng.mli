(** Deterministic, splittable pseudo-random number generator.

    TACOS is a randomized matching algorithm (Alg. 1 shuffles the unsatisfied
    postconditions and picks random candidate sources), so every synthesis run
    threads an explicit generator through the search. The generator is
    splittable so that independent synthesis trials draw from independent
    streams while the whole experiment stays reproducible from a single seed.

    The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA'14). *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] draws a new, statistically independent generator from [t],
    advancing [t]. Only tests call it: test_util's "split independent" and
    "stream pinned". *)

val copy : t -> t
(** [copy t] duplicates the current state (the copy and the original then
    produce identical streams). Only tests call it: test_util's "copy" and
    "stream pinned". *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound) — exactly, via rejection
    sampling, so non-power-of-two bounds carry no modulo bias. Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on []. *)

val pick_array : t -> 'a array -> 'a

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix t a len] shuffles [a.(0) .. a.(len - 1)] with the draws
    {!shuffle_in_place} makes on an array of that length. *)

val shuffle_list : t -> 'a list -> 'a list
