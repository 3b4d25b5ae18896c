(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Logical collective programs: what a CCL would hand to the network.

    A program is a dependency graph of point-to-point transfers. Unlike a
    {!Tacos_collective.Schedule.t} — which pins every send to a physical link
    and an exact time — a program only fixes *what* is sent between which NPU
    pair and *after* which other transfers; the congestion-aware simulator
    decides the actual timing (and, for non-neighbor pairs, the multi-hop
    route). This is the natural representation for the topology-unaware
    baseline algorithms of §V-A, whose over/undersubscription the paper
    measures. *)

type transfer = private {
  id : int;
  tag : string;  (** free-form label for diagnostics *)
  src : int;
  dst : int;
  size : float;  (** bytes *)
  deps : int list;  (** transfers that must complete before this one starts *)
}

type t

(** {1 Building} *)

type builder

val builder : unit -> builder

val add :
  builder -> ?tag:string -> ?deps:int list -> src:int -> dst:int -> size:float -> unit -> int
(** Append a transfer; returns its id (ids are dense, starting at 0). [deps]
    must reference already-added transfers. [src = dst] is allowed and
    completes instantly once its deps do (a local reduction step). Raises
    [Invalid_argument] on negative size or dangling deps. *)

val barrier : builder -> int list -> int -> int list
(** [barrier b deps npu] is a convenience no-op transfer on [npu] depending
    on [deps]; returns a single-element dep list for subsequent phases. *)

val build : builder -> t

val import : (string * int * int * float * int list) array -> t
(** [import rows] materializes transfers verbatim from
    [(tag, src, dst, size, deps)] rows, ids assigned in array order —
    the loader/test entry point for transfer graphs that did not come
    through {!add}. Unlike [add] it permits {e forward} (and thus cyclic)
    dependencies; pair with {!validate_acyclic}, and note
    {!Tacos_sim.Engine.run} rejects a cyclic import with a typed
    [Simulation_error] instead of executing it. Raises [Invalid_argument]
    on a negative size or a dep naming no transfer at all. *)

(** {1 Inspection} *)

val transfers : t -> transfer array
val num_transfers : t -> int
val total_bytes : t -> float

val first_forward_dep : t -> (int * int) option
(** The first [(transfer, dep)] pair whose dependency does not point to an
    earlier transfer — [None] for well-formed programs. Since [deps] point
    strictly backwards in any {!add}-built program, a forward dep is
    exactly how an {!import}ed graph can be cyclic. *)

val validate_acyclic : t -> (unit, string) result
(** Check the dependency graph has no cycles (a cyclic program would
    deadlock the simulator); names the offending transfer pair on
    [Error]. *)

val of_schedule : ?tag_of:(Schedule.send -> string) -> chunk_size:float -> Schedule.t -> t
(** Re-express a synthesized schedule as a program: each send becomes a
    single-hop transfer of [chunk_size] bytes depending on every earlier
    send that delivered its chunk to the source (all of them, so the
    converge-then-forward structure of time-mirrored reduction phases is
    preserved). This is how synthesized algorithms are evaluated under the
    same simulator backend as the baselines (§V-C). [tag_of] names each
    transfer (default ["chunk%d"]); `tacos trace` uses it to carry the
    collective phase so the critical-path analyzer can attribute the
    makespan per phase. Raises [Invalid_argument] on a negative NPU or
    chunk id. *)
