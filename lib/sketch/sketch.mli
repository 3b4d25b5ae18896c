(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Communication sketches: declarative constraints over a topology that
    guide the TACOS matcher (in the spirit of TACCL's communication
    sketches).

    A sketch is a small list of rules — forbid a link, prefer a link, pin
    a chunk to a route, restrict inter-group traffic to buddies — validated
    structurally against a concrete (topology, spec) pair and compiled into
    the {!Tacos.Synthesizer.constraints} record the matching loop consumes.
    Validation is total and typed: every way a sketch can be malformed or
    unsatisfiable surfaces as {!Infeasible} carrying the offending rule,
    before any synthesis work starts — a forbidden link that disconnects a
    postcondition is reported as [Disconnected], not as the synthesizer's
    late [Stuck]. *)

type rule =
  | Forbid_link of int  (** the link id must carry nothing *)
  | Prefer_link of { link : int; weight : float }
      (** bias the §IV-F cheapest-first order: the link's ordering cost is
          divided by [weight] (> 0), so weighted links match earlier.
          Durations are untouched. *)
  | Pin_path of { chunk : int; route : int list }
      (** the chunk may only travel the route's link ids; pinning the same
          chunk twice intersects the routes *)
  | Buddy of { dim : int }
      (** fix inter-group partners along hierarchy dimension [dim]: an edge
          whose endpoints differ in coordinate [dim] {e and} in any other
          coordinate is forbidden, so cross-group traffic only flows between
          same-rank buddies (the buddy heuristic of hierarchical
          All-Reduce). Requires the topology to carry a hierarchy. *)

type t = { name : string option; rules : rule list }

val make : ?name:string -> rule list -> t
(** A named sketch of [rules]. Only tests call it: test_sketch's "round-trip",
    "unknown link" and "bad weight". *)

val empty : t
(** The sketch with no rules. Outside this module only tests use it:
    test_sketch's "empty sketch is identity". *)

(** {1 Typed infeasibility} *)

type offender =
  | Unknown_link of { rule : string; link : int }
      (** a rule names a link id outside [0, num_links) *)
  | Unknown_chunk of { chunk : int; num_chunks : int }
      (** a pin names a chunk id outside the spec's chunk space *)
  | Bad_weight of { link : int; weight : float }
      (** a preference weight that is not a finite positive number *)
  | Empty_route of { chunk : int }
      (** a pin with no links, or two pins on one chunk whose routes do not
          intersect *)
  | Forbid_pin_conflict of { chunk : int; link : int }
      (** a link both forbidden and part of a chunk's pinned route *)
  | No_hierarchy of { dim : int }
      (** a buddy rule on a topology without hierarchy metadata, or naming
          a dimension the hierarchy does not have *)
  | Unsupported_pattern of string
      (** sketches apply to the matched patterns (All-Gather, Broadcast,
          Reduce-Scatter, Reduce, All-Reduce); routed patterns are named
          here *)
  | Disconnected of { chunk : int; npu : int }
      (** under the sketch, no initial holder of [chunk] can still reach
          the postcondition at [npu] — the sketch disconnects the
          collective *)

val offender_to_string : offender -> string

exception Infeasible of offender
(** Raised by {!compile} (and {!of_json} for in-band structural errors is
    {e not} — parsing returns [result]; [Infeasible] is about a concrete
    topology/spec pair). *)

(** {1 JSON codec}

    Wire format (also the [--sketch FILE] format of the CLI and the
    [sketch] request field of the serve protocol):

    {v
    { "name": "no-slow-link",
      "rules": [ { "forbid": 3 },
                 { "prefer": 5, "weight": 4 },
                 { "pin": { "chunk": 0, "route": [1, 2] } },
                 { "buddy": { "dim": 1 } } ] }
    v} *)

val to_json : t -> string
(** Outside this module only tests call it: test_sketch's "round-trip" pins it
    against {!of_json}. *)

val of_json_value : Tacos_util.Json.t -> (t, string) result
val of_json : string -> (t, string) result
(** Outside this module only tests call it: test_sketch's "round-trip" and
    "rejects malformed JSON". *)

val of_file : string -> (t, string) result
(** Read and parse a sketch file; I/O errors are reported in the [Error]. *)

val digest : t -> string
(** Hex MD5 of the canonical JSON encoding — the registry cache-key variant
    for sketched requests ([Tacos.Registry]'s [?variant]). Structurally
    equal sketches digest equally; [empty] digests like any other value
    (callers should omit the variant entirely when no sketch applies). *)

(** {1 Compilation} *)

val compile : Topology.t -> Spec.t -> t -> Tacos.Synthesizer.constraints
(** Validate the sketch against this topology and spec and lower it to the
    matcher's constraint record: buddy rules expand to forbidden links,
    duplicate preferences multiply, duplicate pins intersect. Raises
    {!Infeasible} on any structural error, contradiction, or
    sketch-induced disconnection (checked per phase for All-Reduce and on
    the reversed adjacency for the reduction patterns, mirroring how the
    synthesizer actually routes chunks). The empty sketch compiles to
    {!Tacos.Synthesizer.no_constraints}. *)

val check : Topology.t -> Spec.t -> t -> (Tacos.Synthesizer.constraints, offender) result
(** {!compile} with the exception reified. *)

val compliant : Topology.t -> Spec.t -> t -> Schedule.t -> (unit, string) result
(** Check a schedule against the sketch's hard rules: no send on a
    forbidden (or buddy-forbidden) link, every pinned chunk only on its
    route. Preferences are soft and not checked. This is the post-hoc
    assertion the tests and the serving layer run on synthesized
    schedules. *)
