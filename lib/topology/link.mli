(** Point-to-point link characterized by the α-β cost model (§IV-F).

    [alpha] is the fixed per-message latency in seconds and [beta] the
    serialization delay in seconds per byte (the reciprocal of bandwidth).
    Transferring a message of [n] bytes over the link takes
    [alpha +. beta *. n] seconds. *)

type t = private { alpha : float; beta : float }

val make : alpha:float -> beta:float -> t
(** Raises [Invalid_argument] if [alpha] or [beta] is negative, infinite or
    NaN. *)

val of_bandwidth : ?alpha:float -> float -> t
(** [of_bandwidth ~alpha bw] builds a link with bandwidth [bw] bytes/s
    (β = 1/bw). [alpha] defaults to [0.5e-6] s, the paper's default (§V-B,
    footnote 8). Raises [Invalid_argument] unless [bw > 0] and the
    resulting α and β pass {!make}. *)

val default : t
(** The paper's default link: α = 0.5 µs, 1/β = 50 GB/s. *)

val cost : t -> float -> float
(** [cost link size] is the transmission time of [size] bytes. *)

val bandwidth : t -> float
(** Bytes per second ([infinity] if β = 0). *)

val scale_beta : t -> float -> t
(** [scale_beta link k] multiplies β by [k] — used by switch unwinding
    (§IV-G), where a degree-[d] unwinding shares the switch bandwidth and
    multiplies the β cost by [d]. *)
