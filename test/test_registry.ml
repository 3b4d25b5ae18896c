(* Tests for the registry's crash-safe persistence and single-flight
   failure handling: atomic writes never leave temp droppings, every
   flavor of broken disk entry (truncated, empty, garbage, checksum
   mismatch, an All-Reduce file without its phase split) is quarantined
   to *.corrupt and re-synthesized instead of raising, foreign
   checksum-less files still load, a synthesis that raises releases its
   single-flight key for a clean retry, and a failed disk write is counted
   and served from memory. Golden digests and a differential against the
   print-parse-encode formula pin the bytes of every entry. *)

open Tacos_topology
open Tacos_collective
module Json = Tacos_util.Json
module Synth = Tacos.Synthesizer
module Registry = Tacos.Registry
module Obs = Tacos_obs.Obs

let spec ?(chunks_per_npu = 1) ?(buffer_size = 1e6) pattern npus =
  Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus ()

let link = Link.make ~alpha:1e-6 ~beta:(1. /. 50e9)
let ring n = Builders.ring ~link n

let fresh_dir () =
  let dir = Filename.temp_file "tacos-reg" "" in
  Sys.remove dir;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let files dir = Sys.readdir dir |> Array.to_list |> List.sort String.compare

let entry_file dir =
  match List.filter (fun f -> Filename.check_suffix f ".json") (files dir) with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected exactly one cache entry, found %d" (List.length fs)

let has_substring sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Warm one entry into [dir] and return its path. *)
let warm_entry dir topo s =
  let reg = Registry.create ~dir () in
  let result, m = Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) "warm synthesis is a miss" true (m = `Miss);
  (result, entry_file dir)

let test_atomic_write_no_droppings () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let _, _ = warm_entry dir topo (spec Pattern.All_gather 6) in
  Alcotest.(check bool) "no .tmp droppings" true
    (List.for_all (fun f -> not (has_substring ".tmp." f)) (files dir));
  rm_rf dir

(* Shared harness for the broken-entry flavors: corrupt the single cache
   file with [break], then prove a fresh registry over the same directory
   still answers — quarantining the broken file and re-synthesizing. *)
let check_quarantine_and_recover ?(pattern = Pattern.All_gather) name break =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec pattern 6 in
  let original, path = warm_entry dir topo s in
  break path;
  let reg = Registry.create ~dir () in
  let result, m = Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) (name ^ ": re-synthesized, not served broken") true
    (m = `Miss);
  Alcotest.(check int) (name ^ ": counted") 1 (Registry.quarantined reg);
  Alcotest.(check bool) (name ^ ": set aside as .corrupt") true
    (Sys.file_exists (path ^ ".corrupt"));
  (match Synth.verify topo result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: recovered schedule invalid: %s" name e);
  Alcotest.(check (float 1e-9)) (name ^ ": same deterministic makespan")
    original.Synth.collective_time result.Synth.collective_time;
  (* The re-synthesis wrote a fresh entry; a third registry hits it. *)
  let reg3 = Registry.create ~dir () in
  let _, m3 = Registry.find_or_synthesize reg3 topo s in
  Alcotest.(check bool) (name ^ ": fresh entry readable again") true (m3 = `Hit);
  rm_rf dir

let test_truncated_entry () =
  check_quarantine_and_recover "truncated" (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 (String.length text / 2))))

let test_zero_length_entry () =
  check_quarantine_and_recover "zero-length" (fun path ->
      Out_channel.with_open_text path (fun _ -> ()))

let test_garbage_entry () =
  check_quarantine_and_recover "garbage" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "definitely not json {{{"))

let test_checksum_mismatch_entry () =
  (* Valid JSON whose embedded checksum no longer matches the payload —
     the shape a torn-then-patched or bit-rotted file takes. *)
  check_quarantine_and_recover "checksum mismatch" (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      match Json.parse text with
      | Error e -> Alcotest.failf "entry not JSON before corruption: %s" e
      | Ok (Json.Object fields) ->
        let flipped =
          List.map
            (function
              | "checksum", Json.String d ->
                let b = Bytes.of_string d in
                Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
                ("checksum", Json.String (Bytes.to_string b))
              | kv -> kv)
            fields
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Json.encode (Json.Object flipped)))
      | Ok _ -> Alcotest.fail "entry is not a JSON object")

let test_unsplit_all_reduce_entry () =
  (* An All-Reduce file without a checksum or a phase split cannot be
     validated, so it must not be served: here its send list is empty. *)
  check_quarantine_and_recover ~pattern:Pattern.All_reduce "unsplit All-Reduce"
    (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      match Json.parse text with
      | Ok (Json.Object fields) ->
        let gutted =
          List.filter_map
            (function
              | ("checksum" | "reduce_scatter_makespan"), _ -> None
              | "sends", _ -> Some ("sends", Json.Array [])
              | kv -> Some kv)
            fields
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Json.encode (Json.Object gutted)))
      | _ -> Alcotest.fail "entry is not a JSON object")

let test_foreign_entry_without_checksum_loads () =
  (* Files written by other tools carry no checksum field: they must keep
     loading as plain algorithm files, not be quarantined. *)
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let _, path = warm_entry dir topo s in
  let text = In_channel.with_open_text path In_channel.input_all in
  (match Json.parse text with
  | Ok (Json.Object fields) ->
    let stripped = List.filter (fun (k, _) -> k <> "checksum") fields in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.encode (Json.Object stripped)))
  | _ -> Alcotest.fail "entry is not a JSON object");
  let reg = Registry.create ~dir () in
  let _, m = Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) "checksum-less entry still hits" true (m = `Hit);
  Alcotest.(check int) "nothing quarantined" 0 (Registry.quarantined reg);
  rm_rf dir

(* A lookup that never synthesizes: [find_or_synthesize] with a miss
   backend that raises, so only a hit (memory or disk) returns. *)
exception Not_cached

let peek ?variant reg topo s =
  match
    Registry.find_or_synthesize ?variant
      ~synthesize:(fun ~seed:_ ~domains:_ _ _ -> raise Not_cached)
      reg topo s
  with
  | result, _ -> Some result
  | exception Not_cached -> None

let test_peek () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg = Registry.create ~dir () in
  Alcotest.(check bool) "cold peek is None" true (peek reg topo s = None);
  let result, _ = Registry.find_or_synthesize reg topo s in
  (match peek reg topo s with
  | Some peeked ->
    Alcotest.(check (float 1e-9)) "peek returns the cached schedule"
      result.Synth.collective_time peeked.Synth.collective_time
  | None -> Alcotest.fail "warm peek must hit");
  (* A fresh registry peeks the disk store too. *)
  let reg2 = Registry.create ~dir () in
  Alcotest.(check bool) "peek loads from disk" true
    (peek reg2 topo s <> None);
  rm_rf dir

(* A disk hit is the schedule that was saved, for every pattern: the same
   sends in the same order (replay serves tied sends in schedule order),
   the same time and the same phase split. *)
let test_disk_hit_is_the_saved_schedule () =
  let topo = Builders.mesh [| 3; 3 |] in
  let bytes s = Schedule.to_json s in
  List.iter
    (fun pattern ->
      let name = Pattern.name pattern in
      let dir = fresh_dir () in
      let s = spec ~buffer_size:64e6 pattern 9 in
      let saved, _ = warm_entry dir topo s in
      (match peek (Registry.create ~dir ()) topo s with
      | None -> Alcotest.failf "%s: warm disk peek missed" name
      | Some loaded ->
        Alcotest.(check string) (name ^ ": same sends") (bytes saved.Synth.schedule)
          (bytes loaded.Synth.schedule);
        Alcotest.(check (float 0.)) (name ^ ": same time") saved.Synth.collective_time
          loaded.Synth.collective_time;
        let split r = Option.map (fun (rs, ag) -> (bytes rs, bytes ag)) r.Synth.phases in
        Alcotest.(check (option (pair string string))) (name ^ ": same phases")
          (split saved) (split loaded));
      rm_rf dir)
    Pattern.
      [
        All_gather;
        Reduce_scatter;
        All_reduce;
        All_to_all;
        Broadcast 0;
        Reduce 0;
        Gather 0;
        Scatter 0;
      ]

let test_disk_usage_accounting () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  (* Memory-only registry: the disk store reports all zeros, not an error. *)
  let mem = Registry.create () in
  let u0 = Registry.disk_usage mem in
  Alcotest.(check int) "no dir: entries" 0 u0.Registry.disk_entries;
  Alcotest.(check int) "no dir: bytes" 0 u0.Registry.disk_bytes;
  (* One warmed entry: counted with a positive byte size. *)
  let _, path = warm_entry dir topo s in
  let reg = Registry.create ~dir () in
  let u1 = Registry.disk_usage reg in
  Alcotest.(check int) "one entry" 1 u1.Registry.disk_entries;
  Alcotest.(check int) "no corrupt files" 0 u1.Registry.disk_corrupt;
  Alcotest.(check bool) "entry bytes positive" true (u1.Registry.disk_bytes > 0);
  (* Quarantined files stay on disk and stay accounted — the operator can
     see how much space the *.corrupt residue costs. *)
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "definitely not json {{{");
  let reg2 = Registry.create ~dir () in
  let _, m = Registry.find_or_synthesize reg2 topo s in
  Alcotest.(check bool) "re-synthesized" true (m = `Miss);
  let u2 = Registry.disk_usage reg2 in
  Alcotest.(check int) "rewritten entry counted" 1 u2.Registry.disk_entries;
  Alcotest.(check int) "quarantined file counted" 1 u2.Registry.disk_corrupt;
  Alcotest.(check bool) "corrupt bytes included" true
    (u2.Registry.disk_bytes > 0);
  rm_rf dir

let test_failed_synthesis_releases_key () =
  (* A miss whose synthesis raises must release the single-flight key so
     the next request for the same key retries cleanly instead of
     deadlocking or serving the failure forever. *)
  let reg = Registry.create () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let calls = ref 0 in
  let flaky ~seed:_ ~domains:_ topo spec =
    incr calls;
    if !calls = 1 then raise (Synth.Stuck "injected transient failure")
    else Synth.synthesize topo spec
  in
  (match Registry.find_or_synthesize ~synthesize:flaky reg topo s with
  | _ -> Alcotest.fail "first attempt must re-raise the backend failure"
  | exception Synth.Stuck _ -> ());
  let result, m = Registry.find_or_synthesize ~synthesize:flaky reg topo s in
  Alcotest.(check int) "backend retried" 2 !calls;
  Alcotest.(check bool) "retry is a clean miss" true (m = `Miss);
  (match Synth.verify topo result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "retried schedule invalid: %s" e);
  (* And the published result is now a plain hit. *)
  let _, m3 = Registry.find_or_synthesize ~synthesize:flaky reg topo s in
  Alcotest.(check bool) "then a hit" true (m3 = `Hit);
  Alcotest.(check int) "hit runs no synthesis" 2 !calls

let write_errors () = Obs.value (Obs.counter "registry.write_errors")

(* Run [f] with the Obs registry on and reset, so the write-error counter
   reads this test's failures alone. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

(* The disk is a cache: when an entry cannot be written, the synthesis is
   still published and served, first as a miss and then from memory, and
   the failure is counted. Here the directory is gone before the write. *)
let test_failed_write_is_served () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg = Registry.create ~dir () in
  rm_rf dir;
  with_obs (fun () ->
      let result, m = Registry.find_or_synthesize reg topo s in
      Alcotest.(check bool) "served as a miss" true (m = `Miss);
      (match Synth.verify topo result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "served schedule invalid: %s" e);
      Alcotest.(check int) "write error counted" 1 (write_errors ());
      let again, m2 = Registry.find_or_synthesize reg topo s in
      Alcotest.(check bool) "then a hit from memory" true (m2 = `Hit);
      Alcotest.(check (float 0.)) "the same result" result.Synth.collective_time
        again.Synth.collective_time;
      Alcotest.(check int) "a hit writes nothing" 1 (write_errors ()));
  Alcotest.(check bool) "nothing recreated the directory" false (Sys.file_exists dir)

(* A rename that fails removes its temp file. The entry's name is taken by
   a directory, and so is its quarantine name, so the stale "entry" can be
   neither read nor set aside, and the rename onto it fails. *)
let test_failed_rename_removes_temp () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let _, path = warm_entry dir topo s in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Sys.mkdir (path ^ ".corrupt") 0o755;
  Sys.mkdir (Filename.concat (path ^ ".corrupt") "keep") 0o755;
  with_obs (fun () ->
      let reg = Registry.create ~dir () in
      let _, m = Registry.find_or_synthesize reg topo s in
      Alcotest.(check bool) "served as a miss" true (m = `Miss);
      Alcotest.(check int) "write error counted" 1 (write_errors ());
      Alcotest.(check bool) "no temp file left" true
        (List.for_all (fun f -> not (has_substring ".tmp." f)) (files dir));
      let _, m2 = Registry.find_or_synthesize reg topo s in
      Alcotest.(check bool) "then a hit from memory" true (m2 = `Hit));
  Sys.rmdir (Filename.concat (path ^ ".corrupt") "keep");
  Sys.rmdir (path ^ ".corrupt");
  Sys.rmdir path;
  rm_rf dir

let json_files dir =
  List.filter (fun f -> Filename.check_suffix f ".json") (files dir)

(* Set every entry's mtime except [skip] to [age] seconds in the past, so
   the eviction order is unambiguous age, never the filename tie-break. *)
let backdate dir ~skip ~age =
  let t = Unix.gettimeofday () -. age in
  List.iter
    (fun f ->
      if not (List.mem f skip) then Unix.utimes (Filename.concat dir f) t t)
    (json_files dir)

let test_disk_cap_evicts_oldest () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  (* Same structure, different buffer sizes: three near-identical entry
     files, so a cap of ~2.5 entries holds exactly two. *)
  let s size = spec ~buffer_size:size Pattern.All_gather 6 in
  let reg0 = Registry.create ~dir () in
  ignore (Registry.find_or_synthesize reg0 topo (s 1e6));
  let entry_bytes = (Registry.disk_usage reg0).Registry.disk_bytes in
  Alcotest.(check bool) "probe entry has a size" true (entry_bytes > 0);
  rm_rf dir;
  let cap = (2 * entry_bytes) + (entry_bytes / 2) in
  let reg = Registry.create ~dir ~max_disk_bytes:cap () in
  ignore (Registry.find_or_synthesize reg topo (s 1e6));
  backdate dir ~skip:[] ~age:200.;
  let oldest = json_files dir in
  ignore (Registry.find_or_synthesize reg topo (s 2e6));
  backdate dir ~skip:oldest ~age:100.;
  Alcotest.(check int) "two entries fit the cap" 0 (Registry.evicted reg);
  ignore (Registry.find_or_synthesize reg topo (s 3e6));
  Alcotest.(check int) "third write evicts the oldest" 1 (Registry.evicted reg);
  let u = Registry.disk_usage reg in
  Alcotest.(check int) "two entries remain" 2 u.Registry.disk_entries;
  Alcotest.(check bool) "store fits the cap" true (u.Registry.disk_bytes <= cap);
  (* A fresh registry over the directory proves which entries survived:
     the oldest is gone, the two younger ones still load. *)
  let reg2 = Registry.create ~dir () in
  Alcotest.(check bool) "oldest entry evicted" true
    (peek reg2 topo (s 1e6) = None);
  Alcotest.(check bool) "middle entry kept" true
    (peek reg2 topo (s 2e6) <> None);
  Alcotest.(check bool) "newest entry kept" true
    (peek reg2 topo (s 3e6) <> None);
  rm_rf dir

let test_cap_never_evicts_just_written () =
  (* A cap smaller than a single entry still keeps the entry just written —
     the cache stays useful, the counter records the pressure. *)
  let dir = fresh_dir () in
  let topo = ring 6 in
  let reg = Registry.create ~dir ~max_disk_bytes:1 () in
  ignore (Registry.find_or_synthesize reg topo (spec Pattern.All_gather 6));
  Alcotest.(check int) "the only entry survives" 1
    (Registry.disk_usage reg).Registry.disk_entries;
  backdate dir ~skip:[] ~age:200.;
  ignore (Registry.find_or_synthesize reg topo (spec Pattern.All_reduce 6));
  Alcotest.(check int) "previous entry evicted" 1 (Registry.evicted reg);
  Alcotest.(check int) "newest entry survives" 1
    (Registry.disk_usage reg).Registry.disk_entries;
  rm_rf dir

let test_variant_cache_lines () =
  (* A sketched request (keyed by the sketch digest as [variant]) must get
     its own cache line and disk file, never aliasing the unconstrained
     schedule for the same (topology, spec). *)
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg = Registry.create ~dir () in
  let _, m1 = Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) "plain miss" true (m1 = `Miss);
  Alcotest.(check bool) "variant peek misses despite the plain entry" true
    (peek ~variant:"sketch-digest" reg topo s = None);
  let _, m2 = Registry.find_or_synthesize ~variant:"sketch-digest" reg topo s in
  Alcotest.(check bool) "variant synthesizes its own entry" true (m2 = `Miss);
  let _, m3 = Registry.find_or_synthesize ~variant:"sketch-digest" reg topo s in
  Alcotest.(check bool) "variant then hits" true (m3 = `Hit);
  let _, m4 = Registry.find_or_synthesize reg topo s in
  Alcotest.(check bool) "plain line undisturbed" true (m4 = `Hit);
  Alcotest.(check int) "two disk files" 2
    (Registry.disk_usage reg).Registry.disk_entries;
  (* Both lines survive a restart. *)
  let reg2 = Registry.create ~dir () in
  Alcotest.(check bool) "plain line reloads" true
    (peek reg2 topo s <> None);
  Alcotest.(check bool) "variant line reloads" true
    (peek ~variant:"sketch-digest" reg2 topo s <> None);
  rm_rf dir

(* --- entry bytes ------------------------------------------------------------ *)

(* A miss backend that ignores its request and returns [result]: the entry
   the registry writes then depends on the fixture alone, not on the
   matcher. *)
let fixed_backend result ~seed:_ ~domains:_ _topo _spec = result

let fixed_stats = { Synth.wall_seconds = 0.125; rounds = 7; matches = 42; trials = 1 }

let fixed_result ?phases spec schedule =
  {
    Synth.spec;
    schedule;
    collective_time = schedule.Schedule.makespan;
    phases;
    stats = fixed_stats;
  }

(* The bytes of the one entry a miss on [spec] writes for [result]. *)
let written_entry topo spec result =
  let dir = fresh_dir () in
  let reg = Registry.create ~dir () in
  let _, m = Registry.find_or_synthesize ~synthesize:(fixed_backend result) reg topo spec in
  Alcotest.(check bool) "the fixture is a miss" true (m = `Miss);
  let text = In_channel.with_open_bin (entry_file dir) In_channel.input_all in
  rm_rf dir;
  text

let sends_of l =
  Schedule.make
    (List.map
       (fun (chunk, src, dst, start, finish) ->
         { Schedule.chunk; edge = src; src; dst; start; finish })
       l)

(* Entries for fixed schedules: an All-Reduce with its phase split, an
   All-Gather, a rooted Broadcast, and times whose JSON spelling differs in
   form (negative zero, integral below and above 1e15, fractional). The
   digests were taken from entries written before a schedule's JSON was
   built as a value, and must not move. *)
let entry_cases () =
  let rs =
    sends_of [ (0, 0, 1, 0., 1.5e-6); (1, 1, 2, 0., 1.5e-6); (2, 2, 3, 1.5e-6, 3.1e-6) ]
  in
  let ag =
    Schedule.shift
      (sends_of [ (2, 3, 0, 0., 1. /. 3.); (3, 0, 1, 0., 2.5e-7); (0, 1, 2, 1. /. 3., 0.5) ])
      rs.Schedule.makespan
  in
  let gather =
    sends_of
      [ (0, 0, 1, 0., 2e-6); (1, 1, 2, 0., 2e-6); (0, 1, 2, 2e-6, 4.000000000000001e-6) ]
  in
  let broadcast =
    sends_of [ (0, 2, 3, 0., 0.1); (0, 3, 0, 0.1, 0.2); (0, 2, 1, 0.1, 0.30000000000000004) ]
  in
  let odd =
    sends_of
      [
        (0, 0, 1, -0., -0.);
        (1, 1, 2, -0., 5.);
        (2, 2, 3, 999999999999999., 1e15);
        (3, 3, 0, 1e15, 1e15 +. 0.5);
        (0, 0, 1, 1e15 +. 0.5, 123456789012345678.);
      ]
  in
  let case ?phases ?(buffer_size = 1e6) name pattern schedule digest =
    let s = spec ~buffer_size pattern 4 in
    (name, s, fixed_result ?phases s schedule, digest)
  in
  [
    case "all-reduce with its split" ~phases:(rs, ag) Pattern.All_reduce
      (Schedule.union rs ag) "2645f0476977a47b0352e6b82a6f2782";
    case "all-gather" Pattern.All_gather gather "468986633b1b03c46f6c431d442db388";
    case "rooted broadcast" ~buffer_size:3e6 (Pattern.Broadcast 2) broadcast
      "c4ed5f7b95883a805e8ccf65da005f4a";
    case "negative zero and integral times" ~buffer_size:7. Pattern.All_gather odd
      "a5aef3e17f5fa0e421f6a4a7ba68ee87";
  ]

let test_entry_bytes_golden () =
  let topo = ring 4 in
  List.iter
    (fun (name, spec, result, expected) ->
      let text = written_entry topo spec result in
      Alcotest.(check string) name expected (Digest.to_hex (Digest.string text)))
    (entry_cases ())

(* The entry bytes as they were computed before a schedule's JSON was built
   as a value, kept as the oracle: print the schedule, parse it back,
   append the provenance, encode and sign, then encode again with the
   checksum appended. *)
let oracle_entry spec (result : Synth.result) =
  let stats = result.Synth.stats in
  let provenance =
    ( "synthesis_stats",
      Json.Object
        [
          ("wall_seconds", Json.Number stats.Synth.wall_seconds);
          ("rounds", Json.Number (float_of_int stats.Synth.rounds));
          ("matches", Json.Number (float_of_int stats.Synth.matches));
          ("trials", Json.Number (float_of_int stats.Synth.trials));
        ] )
    ::
    (match result.Synth.phases with
    | Some (rs, _) -> [ ("reduce_scatter_makespan", Json.Number rs.Schedule.makespan) ]
    | None -> [])
  in
  match Json.parse (Schedule.to_json ~spec result.Synth.schedule) with
  | Ok (Json.Object fields) ->
    let fields = fields @ provenance in
    let digest = Digest.to_hex (Digest.string (Json.encode (Json.Object fields))) in
    Json.encode (Json.Object (fields @ [ ("checksum", Json.String digest) ]))
  | _ -> Alcotest.fail "to_json does not parse to an object"

(* Documents equal with every number compared bit for bit, so -0. and 0.
   differ. *)
let rec same_json a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Array xs, Json.Array ys -> List.equal same_json xs ys
  | Json.Object xs, Json.Object ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | _ -> a = b

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_arrays (a : Schedule.t) (b : Schedule.t) =
  a.Schedule.chunks = b.Schedule.chunks
  && a.Schedule.edges = b.Schedule.edges
  && a.Schedule.srcs = b.Schedule.srcs
  && a.Schedule.dsts = b.Schedule.dsts
  && same_floats a.Schedule.starts b.Schedule.starts
  && same_floats a.Schedule.finishes b.Schedule.finishes

(* Numbers whose spelling differs in form: zero of both signs, integral
   below and at or above 1e15, fractions that need all 17 digits,
   subnormal, huge. *)
let odd_floats =
  [|
    0.; -0.; 1.; 5.; 999999999999999.; 1e15; 1e15 +. 0.5; 123456789012345678.; 0.1;
    1. /. 3.; 2.5e-7; 4.000000000000001e-6; 5e-324; 1e-300; 1e21; 1e300;
  |]

let float_gen =
  QCheck.Gen.(
    oneof
      [
        oneofa odd_floats;
        float_bound_inclusive 1e-3;
        map Float.of_int (int_range (-1_000_000) 1_000_000);
        map (fun e -> Float.ldexp 1. e) (int_range (-1074) 1000);
      ])

(* Non-negative times, -0. included. *)
let time_gen = QCheck.Gen.(map (fun x -> if Float.sign_bit x then -0. else x) float_gen)

let pattern_gen npus =
  QCheck.Gen.(
    let* r = int_bound (npus - 1) in
    oneofl
      Pattern.
        [
          All_gather; Reduce_scatter; All_reduce; All_to_all; Broadcast r; Reduce r; Gather r;
          Scatter r;
        ])

let entry_gen =
  QCheck.Gen.(
    let* npus = int_range 1 64 in
    let* pattern = pattern_gen npus in
    let* chunks_per_npu = int_range 1 4 in
    let* buffer_size = map (fun x -> if x > 0. then x else 1.) time_gen in
    let spec = Spec.make ~chunks_per_npu ~buffer_size ~pattern ~npus () in
    let* sends =
      list_size (int_bound 30)
        (let* chunk = int_bound 200 in
         let* edge = int_bound 200 in
         let* src = int_bound 63 in
         let* dst = int_bound 63 in
         let* start = time_gen in
         let* d = time_gen in
         return { Schedule.chunk; edge; src; dst; start; finish = start +. d })
    in
    let schedule = Schedule.make sends in
    let* cut = int_bound (List.length sends) in
    let phases =
      match pattern with
      | Pattern.All_reduce ->
        let rs = Schedule.make (List.filteri (fun i _ -> i < cut) sends) in
        Some (rs, schedule)
      | _ -> None
    in
    let* wall_seconds = time_gen in
    let* rounds = int_bound 1_000_000 in
    let* matches = int_bound 1_000_000 in
    let* trials = int_range 1 8 in
    return
      ( spec,
        {
          Synth.spec;
          schedule;
          collective_time = schedule.Schedule.makespan;
          phases;
          stats = { Synth.wall_seconds; rounds; matches; trials };
        } ))

let print_entry (spec, (result : Synth.result)) =
  Printf.sprintf "%s\n%s" (Registry.spec_key spec) (Schedule.to_json ~spec result.Synth.schedule)

let prop_entry_bytes =
  QCheck.Test.make ~name:"entry bytes match the parse formula" ~count:200
    (QCheck.make ~print:print_entry entry_gen) (fun (spec, result) ->
      let schedule = result.Synth.schedule in
      let written = written_entry (ring 4) spec result in
      if not (String.equal written (oracle_entry spec result)) then
        QCheck.Test.fail_reportf "entry bytes differ:\n%s\n%s" written (oracle_entry spec result);
      (match Json.parse (Schedule.to_json ~spec schedule) with
      | Ok doc when same_json doc (Schedule.to_json_value ~spec schedule) -> ()
      | Ok _ -> QCheck.Test.fail_report "to_json_value differs from the parsed to_json"
      | Error e -> QCheck.Test.fail_reportf "to_json does not parse: %s" e);
      match Schedule.of_json_value (Schedule.to_json_value ~spec schedule) with
      | Ok back -> same_arrays back schedule
      | Error e -> QCheck.Test.fail_reportf "of_json_value: %s" e)

let () =
  Alcotest.run "registry"
    [
      ( "crash-safety",
        [
          Alcotest.test_case "atomic writes leave no droppings" `Quick
            test_atomic_write_no_droppings;
          Alcotest.test_case "truncated entry quarantined" `Quick test_truncated_entry;
          Alcotest.test_case "zero-length entry quarantined" `Quick
            test_zero_length_entry;
          Alcotest.test_case "garbage entry quarantined" `Quick test_garbage_entry;
          Alcotest.test_case "checksum mismatch quarantined" `Quick
            test_checksum_mismatch_entry;
          Alcotest.test_case "unsplit All-Reduce entry quarantined" `Quick
            test_unsplit_all_reduce_entry;
          Alcotest.test_case "foreign checksum-less entry loads" `Quick
            test_foreign_entry_without_checksum_loads;
        ] );
      ( "serving-paths",
        [
          Alcotest.test_case "find_cached peeks memory and disk" `Quick
            test_peek;
          Alcotest.test_case "disk hit is the saved schedule" `Quick
            test_disk_hit_is_the_saved_schedule;
          Alcotest.test_case "disk usage accounting" `Quick
            test_disk_usage_accounting;
          Alcotest.test_case "failed synthesis releases the key" `Quick
            test_failed_synthesis_releases_key;
          Alcotest.test_case "failed write is served and counted" `Quick
            test_failed_write_is_served;
          Alcotest.test_case "failed rename removes its temp file" `Quick
            test_failed_rename_removes_temp;
        ] );
      ( "disk-cap",
        [
          Alcotest.test_case "cap evicts oldest-mtime entries" `Quick
            test_disk_cap_evicts_oldest;
          Alcotest.test_case "cap never evicts the entry just written" `Quick
            test_cap_never_evicts_just_written;
          Alcotest.test_case "variants get their own cache lines" `Quick
            test_variant_cache_lines;
        ] );
      ( "entry-bytes",
        [
          Alcotest.test_case "golden entry bytes" `Quick test_entry_bytes_golden;
          QCheck_alcotest.to_alcotest prop_entry_bytes;
        ] );
    ]
