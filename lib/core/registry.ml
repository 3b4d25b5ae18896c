(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
module Obs = Tacos_obs.Obs

(* A synthesis in flight: waiters block on [t.cond] until [outcome] is
   published. Errors are published too, so every joined waiter re-raises
   the owner's exception instead of hanging. *)
type flight = { mutable outcome : (Synthesizer.result, exn) result option }

type t = {
  dir : string option;
  max_disk_bytes : int option;  (** disk cap; oldest-mtime entries evicted past it *)
  lock : Mutex.t;
  cond : Condition.t;
  table : (string, Synthesizer.result) Hashtbl.t;
  inflight : (string, flight) Hashtbl.t;
  mutable quarantined : int;  (** disk entries set aside as [*.corrupt] *)
  mutable evicted : int;  (** disk entries deleted by the size cap *)
}

let c_inflight_joins = Obs.counter "registry.inflight_joins"
let c_write_errors = Obs.counter "registry.write_errors"

(* mkdir -p. Tolerates concurrent creation: another process winning the
   race leaves the directory in place, which is all we need. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then mkdir_p parent;
    try Sys.mkdir dir 0o755 with
    | Sys_error _ when Sys.file_exists dir -> ()
  end

let create ?dir ?max_disk_bytes () =
  Option.iter mkdir_p dir;
  Option.iter
    (fun cap ->
      if cap <= 0 then
        invalid_arg "Registry.create: max_disk_bytes must be positive")
    max_disk_bytes;
  {
    dir;
    max_disk_bytes;
    lock = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 16;
    inflight = Hashtbl.create 8;
    quarantined = 0;
    evicted = 0;
  }

(* Full-width (128-bit) digest of the canonical edge buffer. The
   predecessor truncated this to [Hashtbl.hash] — 30 bits — which
   collides with near-certainty after ~2^15 topologies and then serves a
   schedule for the wrong fabric off the in-memory hit path. *)
let fingerprint topo =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (Topology.num_npus topo));
  List.iter
    (fun (e : Topology.edge) ->
      Buffer.add_string buf
        (Printf.sprintf ";%d>%d:%.17g:%.17g" e.src e.dst
           (Link.cost e.link 0.)
           (Link.cost e.link 1. -. Link.cost e.link 0.)))
    (List.sort
       (fun (a : Topology.edge) (b : Topology.edge) ->
         compare (a.src, a.dst, a.link) (b.src, b.dst, b.link))
       (Topology.edges topo));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The spec half of a cache key. [%.17g] round-trips any float, so
   near-equal buffer sizes (0.4 vs 0.5 bytes both printed "0" by the old
   [%.0f]) can no longer alias. [Plan.sub_key] builds on this same
   function so the two key builders cannot drift apart again. *)
let spec_key (spec : Spec.t) =
  Printf.sprintf "%s-n%d-c%d-b%.17g"
    (String.map
       (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
       (Pattern.name spec.pattern))
    spec.npus spec.chunks_per_npu spec.buffer_size

(* [variant] distinguishes otherwise-identical requests synthesized under
   different extra constraints — a sketched request must never collide with
   (or poison) the unsketched cache line for the same (fabric, spec). The
   empty default keeps every pre-existing key, and disk filename, intact. *)
let key ?(variant = "") topo spec =
  let base = fingerprint topo ^ "-" ^ spec_key spec in
  if variant = "" then base else base ^ "-" ^ variant

let disk_path t k = Option.map (fun d -> Filename.concat d (k ^ ".json")) t.dir

module Json = Tacos_util.Json

(* Cache entries embed the synthesis provenance next to the send list —
   [Schedule.of_json] ignores unknown fields, so the files stay valid
   MSCCL-style algorithm files — and a disk hit restores it instead of
   reporting zero-time stats. The reduce-scatter makespan additionally
   recovers an All-Reduce's phase split (every send strictly before it is
   reduce-scatter, cf. [Schedule.phase_of_send]). *)
let provenance_fields (result : Synthesizer.result) =
  let stats = result.stats in
  ( "synthesis_stats",
    Json.Object
      [
        ("wall_seconds", Json.Number stats.Synthesizer.wall_seconds);
        ("rounds", Json.Number (float_of_int stats.Synthesizer.rounds));
        ("matches", Json.Number (float_of_int stats.Synthesizer.matches));
        ("trials", Json.Number (float_of_int stats.Synthesizer.trials));
      ] )
  ::
  (match result.phases with
  | Some (rs, _) -> [ ("reduce_scatter_makespan", Json.Number rs.Schedule.makespan) ]
  | None -> [])

let restore_stats doc =
  match Json.member "synthesis_stats" doc with
  | None -> { Synthesizer.wall_seconds = 0.; rounds = 0; matches = 0; trials = 0 }
  | Some s ->
    let num name = Option.bind (Json.member name s) Json.to_float in
    let int name = Option.value ~default:0 (Option.map int_of_float (num name)) in
    {
      Synthesizer.wall_seconds = Option.value ~default:0. (num "wall_seconds");
      rounds = int "rounds";
      matches = int "matches";
      trials = int "trials";
    }

let restore_phases (spec : Spec.t) (schedule : Schedule.t) doc =
  match spec.pattern with
  | Pattern.All_reduce -> (
    match Option.bind (Json.member "reduce_scatter_makespan" doc) Json.to_float with
    | Some rs_makespan ->
      let eps = Schedule.eps_for rs_makespan in
      let rs, ag =
        List.partition
          (fun (s : Schedule.send) -> s.start +. eps < rs_makespan)
          (Schedule.sends schedule)
      in
      Some (Schedule.make rs, Schedule.make ag)
    | None -> None)
  | _ -> None

(* Set a broken disk entry aside as [<path>.corrupt] instead of letting it
   poison (or worse, abort) every later load. Quarantine is forensic — the
   bytes survive for inspection — and never fatal: a rename failure (e.g. a
   concurrent quarantine won the race) just leaves re-synthesis to overwrite
   the entry in place. *)
let quarantine t path =
  (try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ());
  Mutex.lock t.lock;
  t.quarantined <- t.quarantined + 1;
  Mutex.unlock t.lock

let quarantined t =
  Mutex.lock t.lock;
  let n = t.quarantined in
  Mutex.unlock t.lock;
  n

(* Entries written by [save_to_disk] carry a "checksum" field: the MD5 of
   the entry encoded *without* it. [Json.parse] preserves field order and
   gives back every string [Json.encode] escaped, and [Json.encode] spells
   each number as [%.17g] does, which round-trips every float, so
   strip-reencode-digest reproduces the signed bytes exactly. Foreign
   algorithm files without a checksum are trusted as before. *)
let checksum_ok fields =
  match List.assoc_opt "checksum" fields with
  | None -> true
  | Some (Json.String declared) ->
    let payload =
      Json.encode (Json.Object (List.filter (fun (k, _) -> k <> "checksum") fields))
    in
    String.equal declared (Digest.to_hex (Digest.string payload))
  | Some _ -> false

(* Any failure mode of a present file — unreadable, not JSON, checksum
   mismatch (torn write), malformed schedule, failed re-validation —
   quarantines it and reports a miss; it never raises out of a lookup. *)
let load_from_disk t topo spec k =
  match disk_path t k with
  | Some path when Sys.file_exists path -> (
    let entry =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error _ -> None
      | text -> (
        match Json.parse text with
        | Ok (Json.Object fields as doc) when checksum_ok fields -> (
          match Schedule.of_json_value doc with
          | Ok schedule -> Some (doc, schedule)
          | Error _ | (exception _) -> None)
        | Ok _ | Error _ -> None)
    in
    match entry with
    | None ->
      quarantine t path;
      None
    | Some (doc, schedule) -> (
      (* An All-Reduce file without its phase split cannot be validated
         (the split is not recoverable from the send list), so it fails
         [verify] and is synthesized again. *)
      let result =
        {
          Synthesizer.spec;
          schedule;
          collective_time = schedule.Schedule.makespan;
          phases = restore_phases spec schedule doc;
          stats = restore_stats doc;
        }
      in
      match Synthesizer.verify topo result with
      | Ok () -> Some result
      | Error _ ->
        quarantine t path;
        None))
  | _ -> None

(* Crash-safe persistence: encode the entry once, sign those bytes, write
   them to a same-directory temp file, then [Sys.rename] into place — on
   POSIX the rename is atomic, so a reader (or a crash) sees either the old
   complete entry or the new complete entry, never a torn prefix. The disk
   is a cache: a failed write or rename removes its temp file, is counted
   under [registry.write_errors], and leaves the result to be served from
   memory. *)
let save_to_disk t spec (result : Synthesizer.result) k =
  match disk_path t k with
  | Some path -> (
    let fields =
      match Schedule.to_json_value ~spec result.Synthesizer.schedule with
      | Json.Object fields -> fields @ provenance_fields result
      | _ -> assert false (* a schedule document is an object *)
    in
    let payload = Json.encode (Json.Object fields) in
    let digest = Digest.to_hex (Digest.string payload) in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    match
      Out_channel.with_open_text tmp (fun oc ->
          (* The payload with the checksum field in place of its closing
             brace: the bytes [Json.encode] gives [fields] plus it. The
             flush reports a failed write, which the channel's close would
             swallow. *)
          Out_channel.output_substring oc payload 0 (String.length payload - 1);
          Printf.fprintf oc ", \"checksum\": \"%s\"}" digest;
          Out_channel.flush oc);
      Sys.rename tmp path
    with
    | () -> ()
    | exception Sys_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Obs.incr c_write_errors)
  | None -> ()

(* The store's files — live [*.json] entries and quarantined [*.corrupt]
   ones — as [(path, bytes, mtime)], scanned fresh on every call: the store
   is shared (other server instances, rsync), so cached totals would go
   stale. A missing or unreadable directory reads as empty, and a file that
   disappears between [readdir] and [stat] as absent: size accounting must
   never take the serving path down. *)
let scan dir =
  Array.fold_left
    (fun acc f ->
      if not (Filename.check_suffix f ".json" || Filename.check_suffix f ".corrupt")
      then acc
      else
        let path = Filename.concat dir f in
        match Unix.stat path with
        | { Unix.st_size; st_mtime; _ } -> (path, st_size, st_mtime) :: acc
        | exception (Unix.Unix_error _ | Sys_error _) -> acc)
    []
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Disk-cap enforcement, run after every write: while the store exceeds
   [max_disk_bytes], delete the oldest-mtime file — except the entry just
   written, so a cap smaller than one schedule degrades to "keep only the
   latest" instead of thrashing the write we are completing. Failures are
   swallowed: another instance may have evicted the same file first, and
   eviction must never take the serving path down. *)
let enforce_disk_cap t ~keep =
  match (t.dir, t.max_disk_bytes) with
  | Some dir, Some cap ->
    let entries = scan dir in
    let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries in
    if total > cap then begin
      (* Oldest first; mtime ties break on the filename for determinism. *)
      let oldest_first =
        List.sort
          (fun (pa, _, ma) (pb, _, mb) -> compare (ma, pa) (mb, pb))
          entries
      in
      ignore
        (List.fold_left
           (fun remaining (path, size, _) ->
             if remaining <= cap || path = keep then remaining
             else begin
               match Sys.remove path with
               | () ->
                 Mutex.lock t.lock;
                 t.evicted <- t.evicted + 1;
                 Mutex.unlock t.lock;
                 remaining - size
               | exception Sys_error _ -> remaining
             end)
           total oldest_first)
    end
  | _ -> ()

let evicted t =
  Mutex.lock t.lock;
  let n = t.evicted in
  Mutex.unlock t.lock;
  n

(* Single-flight lookup. Under [t.lock], a request either hits the
   completed table, joins an in-flight synthesis for the same key (and
   blocks until the owner publishes), or claims ownership by installing
   a [flight]. The owner runs disk load / synthesis *outside* the lock —
   syntheses take seconds; lookups must not serialize behind them — then
   publishes under the lock and broadcasts. N concurrent identical
   requests therefore run exactly one synthesis; the N-1 joiners are
   counted under [registry.inflight_joins] and report [`Hit], and a disk
   entry wanted by several requests at once is loaded once, by the owner.
   Only the owner of a key that is neither cached nor on disk calls the
   miss backend, which servers inject (carrying their deadline) via
   [?synthesize]. *)
let find_or_synthesize ?(seed = 42) ?(domains = 1)
    ?(synthesize = fun ~seed ~domains topo spec -> Router.synthesize_any ~seed ~domains topo spec)
    ?variant t topo (spec : Spec.t) =
  let k = key ?variant topo spec in
  let claim () =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.table k with
    | Some result ->
      Mutex.unlock t.lock;
      `Cached result
    | None -> (
      match Hashtbl.find_opt t.inflight k with
      | Some flight ->
        Obs.incr c_inflight_joins;
        let rec wait () =
          match flight.outcome with
          | None ->
            Condition.wait t.cond t.lock;
            wait ()
          | Some outcome -> outcome
        in
        let outcome = wait () in
        Mutex.unlock t.lock;
        (match outcome with
        | Ok result -> `Cached result
        | Error e -> raise e)
      | None ->
        let flight = { outcome = None } in
        Hashtbl.add t.inflight k flight;
        Mutex.unlock t.lock;
        `Owner flight)
  in
  match claim () with
  | `Cached result -> (result, `Hit)
  | `Owner flight -> (
    let publish outcome =
      Mutex.lock t.lock;
      flight.outcome <- Some outcome;
      (match outcome with
      | Ok result -> Hashtbl.replace t.table k result
      | Error _ -> ());
      Hashtbl.remove t.inflight k;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock
    in
    match
      match load_from_disk t topo spec k with
      | Some result -> (result, `Hit)
      | None ->
        let result = synthesize ~seed ~domains topo spec in
        save_to_disk t spec result k;
        (match disk_path t k with
        | Some path -> enforce_disk_cap t ~keep:path
        | None -> ());
        (result, `Miss)
    with
    | (result, outcome) ->
      publish (Ok result);
      (result, outcome)
    | exception e ->
      publish (Error e);
      raise e)

let entries t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

type disk_usage = { disk_entries : int; disk_corrupt : int; disk_bytes : int }

let disk_usage t =
  let empty = { disk_entries = 0; disk_corrupt = 0; disk_bytes = 0 } in
  match t.dir with
  | None -> empty
  | Some dir ->
    List.fold_left
      (fun acc (path, bytes, _) ->
        let corrupt = Filename.check_suffix path ".corrupt" in
        {
          disk_entries = (acc.disk_entries + if corrupt then 0 else 1);
          disk_corrupt = (acc.disk_corrupt + if corrupt then 1 else 0);
          disk_bytes = acc.disk_bytes + bytes;
        })
      empty (scan dir)
