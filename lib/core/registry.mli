(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

(** Synthesized-algorithm cache.

    Synthesis runs once per (topology, collective) pair; a CCL deployment
    then reuses the schedule for every matching collective call. This
    registry keys schedules by a structural topology fingerprint plus the
    collective spec, holds them in memory, and optionally persists them as
    the JSON algorithm files of {!Tacos_collective.Schedule.to_json}.

    The registry is domain-safe: all table access is mutex-protected, and
    lookups are {e single-flight} — N concurrent requests for the same key
    run exactly one synthesis while the other N−1 block until it
    publishes (each join is counted under the [registry.inflight_joins]
    obs counter and reported as [`Hit]). Distinct keys synthesize
    concurrently without serializing behind each other. *)

type t

val create : ?dir:string -> ?max_disk_bytes:int -> unit -> t
(** An empty registry. With [dir], cache entries are also written to (and
    on miss, looked up from) [dir] as one JSON file per entry; the
    directory is created if needed, [mkdir -p]-style (missing parents are
    created too).

    [max_disk_bytes] caps the disk store (live entries plus quarantined
    files, the same accounting as {!disk_usage}): after every write, the
    oldest-mtime files are deleted — mtime ties break on the filename —
    until the total fits, never evicting the entry just written. Evictions
    are counted under {!evicted} and the [registry.evicted] obs counter.
    The cap needs [dir] to mean anything and must be positive
    ([Invalid_argument] otherwise). *)

val fingerprint : Topology.t -> string
(** Structural digest of a topology: NPU count plus every link's endpoints
    and α-β parameters (link ids and names excluded), hashed full-width
    (128-bit MD5, hex-encoded). Two topologies with equal fingerprints
    accept each other's schedules. *)

val spec_key : Spec.t -> string
(** The spec half of a cache key: sanitized pattern name, NPU count,
    chunk count, and the buffer size printed with [%.17g] (round-trips
    any float, so near-equal buffer sizes never alias). Shared with
    [Tacos_groups.Plan]'s sub-synthesis keys so the builders cannot
    drift. *)

val find_or_synthesize :
  ?seed:int ->
  ?domains:int ->
  ?synthesize:(seed:int -> domains:int -> Topology.t -> Spec.t -> Synthesizer.result) ->
  ?variant:string ->
  t ->
  Topology.t ->
  Spec.t ->
  Synthesizer.result * [ `Hit | `Miss ]
(** Return the cached schedule for this (topology, spec) or synthesize,
    cache, and return it. The default miss backend is
    {!Router.synthesize_any} (with [domains] forwarded, spreading synthesis
    trials over the shared {!Tacos_util.Pool}); [synthesize] replaces it — the
    serving layer injects one that carries the request deadline. Disk
    entries persist their provenance — the synthesis stats and, for
    All-Reduce, the reduce-scatter makespan — as extra JSON fields next to
    the send list (which {!Tacos_collective.Schedule.of_json} ignores, so
    the files remain plain algorithm files); a disk hit restores the
    original stats and the All-Reduce phase split, and every restored
    result is re-validated with {!Synthesizer.verify} on load. Foreign
    files without provenance load with zeroed stats; a foreign All-Reduce
    file has no phase split to validate, so it is quarantined like any
    other entry that fails re-validation.

    Persistence is crash-safe: entries are encoded with an embedded MD5
    [checksum] field and written via a same-directory temp file +
    [Sys.rename], so a reader never observes a torn write. On load, any
    broken file — unreadable, not JSON, checksum mismatch, malformed
    schedule, failed re-validation — is {e quarantined}: renamed to
    [<entry>.corrupt] (preserved for forensics), counted under
    {!quarantined} and the [registry.quarantined] obs counter, and treated
    as a miss. A lookup never raises because of disk state.

    [variant] (default empty) is appended to the cache key: requests
    synthesized under extra constraints — e.g. a communication sketch,
    digested by [Tacos_sketch.Sketch.digest] — get their own cache line
    and disk file instead of colliding with the unconstrained schedule
    for the same (topology, spec). The empty default reproduces every
    pre-existing key and filename.

    Safe to call concurrently from many domains; identical concurrent
    requests trigger exactly one synthesis (single-flight). If the
    synthesis (injected or default) raises, every joined waiter re-raises
    the same exception and the key is released for retry. *)

val find_cached :
  ?variant:string -> t -> Topology.t -> Spec.t -> Synthesizer.result option
(** Non-blocking cache peek: the in-memory table, then the disk store
    (publishing a disk hit to the table, quarantining broken files as
    above). Never synthesizes and never joins an in-flight synthesis —
    the probe a server can afford on every request, even one whose
    deadline already passed. *)

val entries : t -> int
(** Number of in-memory entries. *)

val quarantined : t -> int
(** Number of broken disk entries this registry has set aside as
    [*.corrupt] since creation. *)

val evicted : t -> int
(** Number of disk files this registry has deleted to stay under
    [max_disk_bytes] since creation (zero without a cap). *)

type disk_usage = { disk_entries : int; disk_corrupt : int; disk_bytes : int }

val disk_usage : t -> disk_usage
(** Size accounting for the disk store, scanned fresh on every call:
    live [*.json] entries, quarantined [*.corrupt] files, and their
    combined size in bytes (quarantined included — forensic files occupy
    real disk until an operator clears them). All zero for a registry
    without a backing directory; never raises on unreadable disk state. *)
