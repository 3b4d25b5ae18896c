(** Minimal JSON reader — enough to round-trip the schedule files this
    library writes (and any well-formed JSON). No external dependencies,
    by the sealed-container constraint. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. Supports
    the standard single-character escapes, and decodes a [\uXXXX] escape
    to the UTF-8 bytes of its code point, a surrogate pair as one code
    point. A bad hex digit or a lone surrogate is an [Error]. *)

val encode : t -> string
(** Serialize compactly (single line). Every number is spelled as
    [Printf.sprintf "%.17g"] spells it, which round-trips any finite float:
    integral numbers below 1e15 print in full, as [%.0f] would, and [-0]
    keeps its sign. Each distinct non-integral number is formatted once per
    call; the bytes are those of formatting each one every time. Strings
    are escaped, so [parse (encode v) = Ok v] for documents built from this
    type. *)

val number_writer : Buffer.t -> float -> unit
(** [number_writer buf] is a function that appends a number to [buf]
    spelled as {!encode} spells it, formatting each distinct non-integral
    number once over its lifetime. [Schedule.to_json] writes its numbers
    with one. *)

val member : string -> t -> t option
(** Object field lookup. *)

val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option
