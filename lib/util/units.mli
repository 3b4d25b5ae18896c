(** Unit conventions and formatting shared across the whole reproduction.

    Time is measured in seconds (float), message sizes in bytes (float), and
    bandwidth in bytes per second. The paper quotes sizes in decimal units
    (1 KB = 1e3 B, 1 GB = 1e9 B) and bandwidths in GB/s; we follow that. *)

val gbps : float -> float
(** [gbps x] is [x] GB/s expressed in bytes per second. *)

val bytes_pp : float -> string
(** Human-readable size, e.g. ["64 MB"]. *)

val time_pp : float -> string
(** Human-readable duration, e.g. ["1.08 ms"]. *)

val bandwidth_pp : float -> string
(** Human-readable bandwidth, e.g. ["37.2 GB/s"]. *)
