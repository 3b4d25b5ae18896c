(** Minimal JSON reader — enough to round-trip the schedule files this
    library writes (and any well-formed JSON without exotic escapes). No
    external dependencies, by the sealed-container constraint. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. Supports
    the standard single-character escapes; unicode escapes are preserved
    verbatim. *)

val encode : t -> string
(** Serialize compactly (single line). Integral numbers below 1e15 print
    as [%.0f] spells them ([-0] keeps its sign); everything else uses
    round-trippable [%.17g]. Strings
    are escaped, so [parse (encode v) = Ok v] for documents built from this
    type. *)

val member : string -> t -> t option
(** Object field lookup. *)

val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option
