(* Tests for the registry's crash-safe persistence and single-flight
   failure handling: atomic writes never leave temp droppings, every
   flavor of broken disk entry (truncated, empty, garbage, checksum
   mismatch, an All-Reduce file without its phase split) is quarantined
   to *.corrupt and re-synthesized instead of raising, foreign
   checksum-less files still load, and a synthesis that raises releases
   its single-flight key for a clean retry. *)

open Tacos_topology
open Tacos_collective
module Json = Tacos_util.Json
module Synth = Tacos.Synthesizer
module Registry = Tacos.Registry

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

let test_find_cached_peek () =
  let dir = fresh_dir () in
  let topo = ring 6 in
  let s = spec Pattern.All_gather 6 in
  let reg = Registry.create ~dir () in
  Alcotest.(check bool) "cold peek is None" true (Registry.find_cached reg topo s = None);
  let result, _ = Registry.find_or_synthesize reg topo s in
  (match Registry.find_cached reg topo s with
  | Some peeked ->
    Alcotest.(check (float 1e-9)) "peek returns the cached schedule"
      result.Synth.collective_time peeked.Synth.collective_time
  | None -> Alcotest.fail "warm peek must hit");
  (* A fresh registry peeks the disk store too. *)
  let reg2 = Registry.create ~dir () in
  Alcotest.(check bool) "peek loads from disk" true
    (Registry.find_cached reg2 topo s <> None);
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
      (match Registry.find_cached (Registry.create ~dir ()) topo s with
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
    (Registry.find_cached reg2 topo (s 1e6) = None);
  Alcotest.(check bool) "middle entry kept" true
    (Registry.find_cached reg2 topo (s 2e6) <> None);
  Alcotest.(check bool) "newest entry kept" true
    (Registry.find_cached reg2 topo (s 3e6) <> None);
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
    (Registry.find_cached ~variant:"sketch-digest" reg topo s = None);
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
    (Registry.find_cached reg2 topo s <> None);
  Alcotest.(check bool) "variant line reloads" true
    (Registry.find_cached ~variant:"sketch-digest" reg2 topo s <> None);
  rm_rf dir

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
            test_find_cached_peek;
          Alcotest.test_case "disk hit is the saved schedule" `Quick
            test_disk_hit_is_the_saved_schedule;
          Alcotest.test_case "disk usage accounting" `Quick
            test_disk_usage_accounting;
          Alcotest.test_case "failed synthesis releases the key" `Quick
            test_failed_synthesis_releases_key;
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
    ]
