(* Namespaces of the substrate libraries. *)
open Tacos_topology

(** Textual descriptions of topologies, sizes and patterns — the input
    format of the [tacos] CLI (and handy in scripts and tests). *)

val parse_size : string -> (float, string) result
(** Decimal byte sizes: ["1GB"], ["64MB"], ["512KB"], ["100B"], ["4096"].
    Non-positive and non-finite sizes are errors. *)

val parse_topology :
  ?alpha:float -> ?bw:float -> string -> (Topology.t, string) result
(** Topology descriptions: [ring:N], [uniring:N], [fc:N], [mesh:AxB[xC]],
    [torus:AxB[xC]], [hypercube:K], [switch:N], [dgx1], [dragonfly[:GxM]],
    [rfs:RxFxS]. [alpha] (seconds, default 0.5 µs) and [bw] (bytes/s, default
    50 GB/s) set the link parameters; the heterogeneous builders scale their
    per-dimension bandwidths down from [bw]. A negative or non-finite
    [alpha], a [bw] that is not positive, a dimension below 1, or a
    dragonfly with fewer than [G - 1] members per group is an error. *)

val parse_time : string -> (float, string) result
(** Durations: ["0.5us"], ["30ns"], ["2ms"], ["1s"], or plain seconds.
    Negative and non-finite durations are errors. Outside this module only tests
    call it: test_collective's "durations". *)

val parse_topology_lines : ?name:string -> string list -> (Topology.t, string) result
(** Build a topology from an edge-list description, one directive per line:

    {v
    # comment
    npus 4
    link 0 1 50GB/s 0.5us     # unidirectional src dst bandwidth latency
    bilink 1 2 25GB/s 1us     # both directions
    ring 0 1 2 3 50GB/s 0.5us # bidirectional ring through the listed NPUs
    v}

    The [npus] directive must come first. Errors carry the line number. Outside
    this module only tests call it: test_collective's "topology files" and
    "topology file errors". *)

val parse_topology_file : string -> (Topology.t, string) result
(** [parse_topology_lines] over a file's contents; the topology is named
    after the file. Used by the CLI's [file:PATH] topology syntax. Outside this
    module only tests call it: test_collective's "topology file round trip". *)

val parse_pattern : string -> int -> (Pattern.t, string) result
(** Pattern names: [all-gather]/[ag], [reduce-scatter]/[rs],
    [all-reduce]/[ar], [all-to-all]/[a2a], [broadcast[:ROOT]],
    [reduce[:ROOT]]. The NPU count bounds the root. *)
