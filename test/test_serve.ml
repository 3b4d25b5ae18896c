(* Tests for the synthesis service: protocol parsing, the full request
   lifecycle (hit/miss/degraded/overloaded/error), deadline propagation
   into the synthesizer, single-flight retry through the server path, and
   both export flavors. *)

module Json = Tacos_util.Json
module Deadline = Tacos_util.Deadline
module Synth = Tacos.Synthesizer
module Protocol = Tacos_serve.Protocol
module Service = Tacos_serve.Service

let req fields = Json.encode (Json.Object fields)

let parse_response r =
  match Json.parse r with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "response not JSON: %s (%s)" e r

let status r =
  match Json.member "status" (parse_response r) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "no status in %s" r

let bool_field name r =
  match Json.member name (parse_response r) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "no boolean %s in %s" name r

let service ?config ?synthesize () = Service.create ?config ?synthesize ()

let synth_req ?(id = 1.) ?deadline_ms ?(extra = []) topology =
  req
    ([
       ("id", Json.Number id);
       ("op", Json.String "synthesize");
       ("topology", Json.String topology);
       ("pattern", Json.String "all-gather");
       ("size", Json.Number 1e6);
     ]
    @ (match deadline_ms with
      | Some d -> [ ("deadline_ms", Json.Number d) ]
      | None -> [])
    @ extra)

(* --- protocol ------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let line =
    req
      [
        ("id", Json.String "r-1");
        ("op", Json.String "synthesize");
        ("topology", Json.String "ring:4");
        ("pattern", Json.String "all-reduce");
        ("size", Json.String "64MB");
        ("chunks", Json.Number 2.);
        ("seed", Json.Number 7.);
        ("deadline_ms", Json.Number 250.);
        ("fail_links", Json.Array [ Json.Number 0.; Json.Number 3. ]);
      ]
  in
  match Protocol.parse_request line with
  | Error (_, msg) -> Alcotest.failf "parse failed: %s" msg
  | Ok r ->
    Alcotest.(check bool) "id" true (r.Protocol.id = Json.String "r-1");
    Alcotest.(check bool) "op" true (r.Protocol.op = Protocol.Synthesize);
    Alcotest.(check (option string)) "topology" (Some "ring:4") r.Protocol.topology;
    Alcotest.(check string) "pattern" "all-reduce" r.Protocol.pattern;
    Alcotest.(check (float 1.)) "size parsed" 64e6 r.Protocol.size;
    Alcotest.(check int) "chunks" 2 r.Protocol.chunks;
    Alcotest.(check (option int)) "seed" (Some 7) r.Protocol.seed;
    Alcotest.(check bool) "deadline" true (r.Protocol.deadline_ms = Some 250.);
    Alcotest.(check (list int)) "fail_links" [ 0; 3 ] r.Protocol.fail_links

let has_substring sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_protocol_rejects () =
  let bad line expect =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "%s should not parse" line
    | Error (_, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s (got %s)" line expect msg)
        true (has_substring expect msg)
  in
  bad "not json" "not JSON";
  bad "[1,2]" "object";
  bad {|{"op":"frobnicate"}|} "unknown op";
  bad {|{"op":"synthesize","size":-3}|} "size";
  bad {|{"op":"synthesize","size":1e999}|} "size";
  bad {|{"op":"synthesize","size":"inf"}|} "size";
  bad {|{"op":"synthesize","chunks":0}|} "chunks";
  bad {|{"op":"synthesize","fail_links":[1,"x"]}|} "fail_links";
  bad {|{"op":"metrics","prefix":7}|} "prefix must be a string"

(* The value of one sample in the service's exposition: the first of
   [metric]'s samples that carries every label in [labels]. *)
let exposed svc metric labels =
  match Tacos_obs.Expo.parse (Service.metrics svc) with
  | Error e -> Alcotest.failf "exposition unparseable: %s" e
  | Ok samples -> (
    match
      List.find_opt
        (fun (e : Tacos_obs.Expo.exposed) ->
          e.metric = metric && List.for_all (fun kv -> List.mem kv e.label_set) labels)
        samples
    with
    | Some e -> e.v
    | None -> Alcotest.failf "no sample %s in the exposition" metric)

(* --- lifecycle ----------------------------------------------------------- *)

let test_malformed_line_is_structured_error () =
  let svc = service () in
  let r = Service.handle_line svc "nonsense" in
  Alcotest.(check string) "status" "error" (status r);
  Alcotest.(check int) "counted" 1 (Service.stats svc).Service.errors

let test_non_finite_size_is_size_error () =
  let svc = service () in
  let r =
    Service.handle_line svc
      {|{"op":"synthesize","topology":"ring:4","pattern":"all-gather","size":1e999}|}
  in
  Alcotest.(check string) "status" "error" (status r);
  (match Json.member "message" (parse_response r) with
  | Some (Json.String msg) ->
    Alcotest.(check bool) ("names the size: " ^ msg) true (has_substring "size" msg)
  | _ -> Alcotest.failf "no error message in %s" r);
  Alcotest.(check int) "counted" 1 (Service.stats svc).Service.errors

(* A zero dimension is a plain request error, not an internal one. *)
let test_zero_dimension_is_plain_error () =
  let svc = service () in
  let r =
    Service.handle_line svc
      {|{"op":"synthesize","topology":"mesh:0x3","pattern":"all-gather","size":1048576}|}
  in
  Alcotest.(check string) "status" "error" (status r);
  (match Json.member "message" (parse_response r) with
  | Some (Json.String msg) ->
    Alcotest.(check bool) ("names the dimension: " ^ msg) true
      (has_substring "dimension 0" msg);
    Alcotest.(check bool) ("not internal: " ^ msg) false (has_substring "internal error" msg)
  | _ -> Alcotest.failf "no error message in %s" r);
  Alcotest.(check int) "counted" 1 (Service.stats svc).Service.errors

(* An oversized fabric is refused with the bound it passes, before any
   allocation could fail and surface as an internal error. *)
let test_oversized_topology_is_plain_error () =
  let svc = service () in
  let file = Filename.temp_file "tacos-huge" ".topo" in
  Out_channel.with_open_text file (fun oc -> output_string oc "npus 1000000000000\n");
  List.iter
    (fun topology ->
      let r =
        Service.handle_line svc
          (Printf.sprintf
             {|{"op":"synthesize","topology":%S,"pattern":"all-gather","size":1048576}|}
             topology)
      in
      Alcotest.(check string) "status" "error" (status r);
      match Json.member "message" (parse_response r) with
      | Some (Json.String msg) ->
        Alcotest.(check bool) ("names the bound: " ^ msg) true
          (has_substring "over the bound" msg);
        Alcotest.(check bool) ("not internal: " ^ msg) false
          (has_substring "internal error" msg)
      | _ -> Alcotest.failf "no error message in %s" r)
    [ "hypercube:40"; "mesh:100000x100000"; "file:" ^ file ];
  Sys.remove file;
  Alcotest.(check int) "counted" 3 (Service.stats svc).Service.errors

let test_miss_then_cached () =
  let svc = service () in
  let a = Service.handle_line svc (synth_req "ring:4") in
  Alcotest.(check string) "first ok" "ok" (status a);
  Alcotest.(check bool) "first is a miss" false (bool_field "cached" a);
  let b = Service.handle_line svc (synth_req ~id:2. "ring:4") in
  Alcotest.(check bool) "second is cached" true (bool_field "cached" b);
  let s = Service.stats svc in
  Alcotest.(check int) "one miss" 1 s.Service.misses;
  Alcotest.(check int) "one hit" 1 s.Service.hits

(* A registry directory that disappears under a running service does not
   turn a finished synthesis into an error: the answer is served, first as
   a miss and then from memory. *)
let test_unwritable_registry_served () =
  let dir = Filename.temp_file "tacos-serve-reg" "" in
  Sys.remove dir;
  let svc = service ~config:{ Service.default_config with registry_dir = Some dir } () in
  Sys.rmdir dir;
  let line = {|{"op":"synthesize","topology":"mesh:3x3","pattern":"all-gather"}|} in
  let a = Service.handle_line svc line in
  Alcotest.(check string) "first ok" "ok" (status a);
  Alcotest.(check bool) "first is a miss" false (bool_field "cached" a);
  let b = Service.handle_line svc line in
  Alcotest.(check string) "second ok" "ok" (status b);
  Alcotest.(check bool) "second is cached" true (bool_field "cached" b);
  let s = Service.stats svc in
  Alcotest.(check int) "no errors" 0 s.Service.errors;
  Alcotest.(check int) "one miss" 1 s.Service.misses;
  Alcotest.(check int) "one hit" 1 s.Service.hits

let test_expired_deadline_degrades () =
  let svc = service () in
  let r = Service.handle_line svc (synth_req ~deadline_ms:0. "mesh:3x3") in
  Alcotest.(check string) "still ok" "ok" (status r);
  Alcotest.(check bool) "degraded" true (bool_field "degraded" r);
  let s = Service.stats svc in
  Alcotest.(check int) "deadline miss counted" 1 s.Service.deadline_missed;
  Alcotest.(check int) "degraded counted" 1 s.Service.degraded;
  (* The baseline answer carries the (negative) remaining slack. *)
  match Json.member "deadline_slack_ms" (parse_response r) with
  | Some (Json.Number slack) ->
    Alcotest.(check bool) "slack is negative" true (slack <= 0.)
  | _ -> Alcotest.failf "no deadline_slack_ms in %s" r

let test_backend_deadline_exceeded_degrades () =
  (* A backend that gives up mid-synthesis must never propagate the
     exception: the service hands the request to the resilience ladder.
     With 10 s of slack left the ladder synthesizes a real schedule (so
     [degraded] stays false); the deadline miss is still counted. *)
  let svc =
    service
      ~synthesize:(fun ~deadline:_ ~sketch:_ ~seed:_ ~domains:_ _ _ ->
        raise Synth.Deadline_exceeded)
      ()
  in
  let r = Service.handle_line svc (synth_req ~deadline_ms:10_000. "ring:4") in
  Alcotest.(check string) "still ok" "ok" (status r);
  Alcotest.(check bool) "fallback answer, not a cache hit" false
    (bool_field "cached" r);
  Alcotest.(check int) "deadline miss counted" 1
    (Service.stats svc).Service.deadline_missed

let test_cache_hit_served_past_deadline () =
  (* Hits are effectively free: even a request whose deadline has passed
     gets the cached schedule rather than a degraded baseline. *)
  let svc = service () in
  ignore (Service.handle_line svc (synth_req "ring:4"));
  let r = Service.handle_line svc (synth_req ~id:2. ~deadline_ms:0. "ring:4") in
  Alcotest.(check string) "ok" "ok" (status r);
  Alcotest.(check bool) "cached" true (bool_field "cached" r);
  Alcotest.(check bool) "not degraded" false (bool_field "degraded" r)

let test_flaky_backend_retries_through_server () =
  (* Single-flight release through the server path: a synthesis that
     raises must leave the key clean, so the next identical request runs
     the backend again and succeeds. *)
  let calls = ref 0 in
  let flaky ~deadline:_ ~sketch:_ ~seed ~domains:_ topo spec =
    incr calls;
    if !calls = 1 then raise (Synth.Stuck "injected transient failure")
    else Synth.synthesize ~seed topo spec
  in
  let svc = service ~synthesize:flaky () in
  let a = Service.handle_line svc (synth_req "ring:4") in
  (* First request: the miss backend failed; the service falls back
     structurally (the resilience ladder synthesizes on the healthy
     fabric), but the cache key must be released. *)
  Alcotest.(check string) "first still answers" "ok" (status a);
  let b = Service.handle_line svc (synth_req ~id:2. "ring:4") in
  Alcotest.(check string) "second ok" "ok" (status b);
  Alcotest.(check bool) "second is a real miss" false (bool_field "cached" b);
  Alcotest.(check bool) "second not degraded" false (bool_field "degraded" b);
  Alcotest.(check int) "backend ran again" 2 !calls;
  let c = Service.handle_line svc (synth_req ~id:3. "ring:4") in
  Alcotest.(check bool) "third is cached" true (bool_field "cached" c);
  Alcotest.(check int) "hit runs no synthesis" 2 !calls

let test_disconnected_fault_is_structured_error () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (synth_req ~extra:[ ("fail_links", Json.Array [ Json.Number 0. ]) ]
         "uniring:4")
  in
  Alcotest.(check string) "error" "error" (status r);
  Alcotest.(check bool) "carries the failure report" true
    (Json.member "failure" (parse_response r) <> None);
  Alcotest.(check int) "counted" 1 (Service.stats svc).Service.errors

let test_overload_sheds () =
  (* Saturate a queue_limit=1 service with a latch-blocked synthesis on a
     second thread, then prove the next request is shed with a retry
     hint. *)
  let latch = Mutex.create () in
  let opened = Condition.create () in
  let released = ref false in
  let started = Atomic.make 0 in
  let blocking ~deadline:_ ~sketch:_ ~seed ~domains:_ topo spec =
    Atomic.incr started;
    Mutex.lock latch;
    while not !released do
      Condition.wait opened latch
    done;
    Mutex.unlock latch;
    Synth.synthesize ~seed topo spec
  in
  let config = { Service.default_config with queue_limit = 1 } in
  let svc = service ~config ~synthesize:blocking () in
  let blocked =
    Domain.spawn (fun () -> Service.handle_line svc (synth_req "ring:4"))
  in
  let t0 = Unix.gettimeofday () in
  while Atomic.get started < 1 && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "blocked synthesis started" 1 (Atomic.get started);
  let r = Service.handle_line svc (synth_req ~id:2. "ring:8") in
  Alcotest.(check string) "shed" "overloaded" (status r);
  (match Json.member "retry_after_ms" (parse_response r) with
  | Some (Json.Number ms) -> Alcotest.(check bool) "positive hint" true (ms >= 1.)
  | _ -> Alcotest.failf "no retry_after_ms in %s" r);
  Mutex.lock latch;
  released := true;
  Condition.broadcast opened;
  Mutex.unlock latch;
  Alcotest.(check string) "latched request completes" "ok" (status (Domain.join blocked));
  let s = Service.stats svc in
  Alcotest.(check int) "one shed" 1 s.Service.shed;
  Alcotest.(check int) "one accepted" 1 s.Service.accepted;
  Alcotest.(check (float 0.)) "one shed exposed" 1.
    (exposed svc "tacos_serve_requests_total" [ ("outcome", "shed") ])

let test_ping_and_stats () =
  let svc = service () in
  let p = Service.handle_line svc (req [ ("id", Json.Number 1.); ("op", Json.String "ping") ]) in
  Alcotest.(check bool) "pong" true (bool_field "pong" p);
  ignore (Service.handle_line svc (synth_req ~id:2. "ring:4"));
  let s = Service.handle_line svc (req [ ("id", Json.Number 3.); ("op", Json.String "stats") ]) in
  match Json.member "misses" (parse_response s) with
  | Some (Json.Number 1.) -> ()
  | _ -> Alcotest.failf "stats should report the miss: %s" s

(* A \u escape in the id is decoded, so the client gets back the string it
   sent, in UTF-8. *)
let test_unicode_id_echoed () =
  let svc = service () in
  let p = Service.handle_line svc {|{"id":"caf\u00e9","op":"ping"}|} in
  Alcotest.(check (option string)) "id" (Some "caf\xc3\xa9")
    (Option.bind (Json.member "id" (parse_response p)) Json.to_string)

(* --- telemetry ----------------------------------------------------------- *)

module Expo = Tacos_obs.Expo
module Logfmt = Tacos_util.Logfmt

let metrics_text ?prefix svc =
  let fields =
    [ ("id", Json.Number 1.); ("op", Json.String "metrics") ]
    @ match prefix with Some p -> [ ("prefix", Json.String p) ] | None -> []
  in
  let r = Service.handle_line svc (req fields) in
  Alcotest.(check string) "metrics ok" "ok" (status r);
  match Json.member "metrics" (parse_response r) with
  | Some (Json.String text) -> text
  | _ -> Alcotest.failf "no metrics text in %s" r

let test_metrics_verb () =
  let svc = service () in
  ignore (Service.handle_line svc (synth_req "ring:4"));
  ignore (Service.handle_line svc (synth_req ~id:2. "ring:4"));
  let text = metrics_text svc in
  (match Expo.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition invalid: %s" e);
  let samples =
    match Expo.parse text with
    | Ok l -> l
    | Error e -> Alcotest.failf "exposition unparseable: %s" e
  in
  let value metric labels =
    match
      List.find_opt
        (fun (e : Expo.exposed) ->
          e.Expo.metric = metric
          && List.for_all (fun kv -> List.mem kv e.Expo.label_set) labels)
        samples
    with
    | Some e -> e.Expo.v
    | None -> Alcotest.failf "no sample %s in exposition" metric
  in
  Alcotest.(check bool) "accepted counter" true
    (value "tacos_serve_requests_total" [ ("outcome", "accepted") ] = 2.);
  Alcotest.(check bool) "hit counter" true
    (value "tacos_serve_requests_total" [ ("outcome", "hit") ] = 1.);
  (* Per-verb latency quantiles: the acceptance bar for the metrics verb. *)
  List.iter
    (fun q ->
      let v =
        value "tacos_serve_latency_ms" [ ("verb", "synthesize"); ("quantile", q) ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "synthesize p%s present" q)
        true
        (Float.is_finite v && v >= 0.))
    [ "0.5"; "0.95"; "0.99" ];
  Alcotest.(check bool) "registry entries gauge" true
    (value "tacos_registry_entries" [] = 1.)

let test_metrics_prefix_filter () =
  let svc = service () in
  ignore (Service.handle_line svc (synth_req "ring:4"));
  let text = metrics_text ~prefix:"tacos_registry_" svc in
  match Expo.parse text with
  | Ok [] -> Alcotest.fail "prefixed exposition is empty"
  | Ok samples ->
    List.iter
      (fun (e : Expo.exposed) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s matches the prefix" e.Expo.metric)
          true
          (String.starts_with ~prefix:"tacos_registry_" e.Expo.metric))
      samples
  | Error e -> Alcotest.failf "prefixed exposition unparseable: %s" e

let test_extended_stats () =
  let svc = service () in
  ignore (Service.handle_line svc (synth_req "ring:4"));
  let r = Service.handle_line svc (req [ ("id", Json.Number 2.); ("op", Json.String "stats") ]) in
  let doc = parse_response r in
  (match Json.member "inflight" doc with
  | Some (Json.Number 0.) -> ()
  | _ -> Alcotest.failf "stats should report 0 inflight at rest: %s" r);
  (match Json.member "uptime_seconds" doc with
  | Some (Json.Number up) ->
    Alcotest.(check bool) "uptime non-negative" true (up >= 0.)
  | _ -> Alcotest.failf "no uptime_seconds in %s" r);
  (match Json.member "registry" doc with
  | Some (Json.Object fields) ->
    Alcotest.(check bool) "one entry in memory" true
      (List.assoc_opt "entries" fields = Some (Json.Number 1.));
    (* No registry_dir configured: the disk store is empty, not an error. *)
    Alcotest.(check bool) "no disk entries" true
      (List.assoc_opt "disk_entries" fields = Some (Json.Number 0.))
  | _ -> Alcotest.failf "no registry object in %s" r);
  match Json.member "latency_ms" doc with
  | Some (Json.Object verbs) ->
    (match List.assoc_opt "synthesize" verbs with
    | Some summary ->
      (match Json.member "p99" summary with
      | Some (Json.Number p99) ->
        Alcotest.(check bool) "p99 non-negative" true (p99 >= 0.)
      | _ -> Alcotest.failf "no p99 for synthesize in %s" r)
    | None -> Alcotest.failf "no synthesize latency summary in %s" r)
  | _ -> Alcotest.failf "no latency_ms in %s" r

let test_access_log () =
  let records = ref [] in
  let config =
    {
      Service.default_config with
      access_log = Some (fun line -> records := line :: !records);
    }
  in
  let svc = service ~config () in
  ignore (Service.handle_line svc (synth_req "ring:4"));
  ignore (Service.handle_line svc (synth_req ~id:2. ~deadline_ms:500. "ring:4"));
  ignore (Service.handle_line svc "not json at all");
  let parsed =
    List.rev_map
      (fun line ->
        match Logfmt.parse line with
        | Ok kvs -> kvs
        | Error e -> Alcotest.failf "access record unparseable: %s (%s)" e line)
      !records
  in
  (match parsed with
  | [ miss; hit; bad ] ->
    Alcotest.(check (option string)) "miss outcome" (Some "miss")
      (List.assoc_opt "outcome" miss);
    Alcotest.(check (option string)) "hit outcome" (Some "hit")
      (List.assoc_opt "outcome" hit);
    (* The deadline applied to the hit shows up with its remaining slack. *)
    Alcotest.(check (option string)) "deadline recorded" (Some "500")
      (List.assoc_opt "deadline_ms" hit);
    Alcotest.(check bool) "slack recorded" true (List.mem_assoc "slack_ms" hit);
    Alcotest.(check (option string)) "malformed line logged as invalid"
      (Some "invalid") (List.assoc_opt "verb" bad);
    Alcotest.(check (option string)) "malformed line is an error" (Some "error")
      (List.assoc_opt "outcome" bad);
    List.iter
      (fun kvs ->
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k kvs))
          [ "t"; "id"; "verb"; "outcome"; "elapsed_ms"; "bytes_out" ])
      parsed
  | l -> Alcotest.failf "expected 3 access records, got %d" (List.length l));
  Alcotest.(check bool) "stamps stay within uptime" true
    (List.for_all
       (fun kvs ->
         match float_of_string_opt (List.assoc "t" kvs) with
         | Some t -> t >= 0. && t <= (Service.stats svc).Service.uptime_seconds
         | None -> false)
       parsed)

(* One outcome per response: the access log, the stats counters and the
   exposition tally the same answers. The first request's backend call
   fails and the resilience ladder answers it with a synthesized schedule,
   which is a miss like its retry's. *)
let test_each_response_counted_once () =
  let records = ref [] in
  let config =
    {
      Service.default_config with
      access_log = Some (fun line -> records := line :: !records);
    }
  in
  let calls = ref 0 in
  let backend ~deadline ~sketch:_ ~seed ~domains:_ topo spec =
    incr calls;
    if !calls = 1 then raise (Synth.Stuck "injected transient failure");
    (match deadline with
    | Some d when Deadline.expired d -> raise Synth.Deadline_exceeded
    | _ -> ());
    Synth.synthesize ~seed topo spec
  in
  let svc = service ~config ~synthesize:backend () in
  List.iter
    (fun line -> ignore (Service.handle_line svc line))
    [
      synth_req "ring:4";
      synth_req ~id:2. "ring:4";
      synth_req ~id:3. "ring:4";
      "not json at all";
      synth_req ~id:4. ~deadline_ms:0. "ring:6";
    ];
  let logged outcome =
    List.length
      (List.filter
         (fun line ->
           match Logfmt.parse line with
           | Ok kvs -> List.assoc_opt "outcome" kvs = Some outcome
           | Error e -> Alcotest.failf "access record unparseable: %s (%s)" e line)
         !records)
  in
  let samples =
    match Expo.parse (Service.metrics svc) with
    | Ok l -> l
    | Error e -> Alcotest.failf "exposition unparseable: %s" e
  in
  let exposed outcome =
    match
      List.find_opt
        (fun (e : Expo.exposed) ->
          e.Expo.metric = "tacos_serve_requests_total"
          && List.mem ("outcome", outcome) e.Expo.label_set)
        samples
    with
    | Some e -> int_of_float e.Expo.v
    | None -> Alcotest.failf "no %s sample in the exposition" outcome
  in
  let st = Service.stats svc in
  List.iter
    (fun (outcome, expected, counter) ->
      Alcotest.(check int) (outcome ^ " logged") expected (logged outcome);
      Alcotest.(check int) (outcome ^ " counted") expected counter;
      Alcotest.(check int) (outcome ^ " exposed") expected (exposed outcome))
    [
      ("miss", 2, st.Service.misses);
      ("hit", 1, st.Service.hits);
      ("error", 1, st.Service.errors);
      ("degraded", 1, st.Service.degraded);
      ("shed", 0, st.Service.shed);
    ]

(* --- a replayed trace ----------------------------------------------------- *)

(* 122 requests against a persistent store. A first service warms twelve
   configurations to disk, and three of the entries are then overwritten
   with garbage. A second service answers 8 rounds of the twelve (the
   three broken entries are quarantined and re-synthesized once), 6
   cold requests whose deadline is already spent (degraded), 4 on a fabric
   a fault disconnects (errors), and a burst of 16 identical cold requests
   from 8 workers at once, which the single-flight join answers with one
   synthesis. *)
let test_replayed_trace () =
  let dir = Filename.temp_file "tacos-serve-trace" "" in
  Sys.remove dir;
  let line ?(extra = []) (topology, pattern, size) =
    req
      ([
         ("op", Json.String "synthesize");
         ("topology", Json.String topology);
         ("pattern", Json.String pattern);
         ("size", Json.Number size);
       ]
      @ extra)
  in
  let warm_configs =
    List.concat_map
      (fun topology ->
        List.map
          (fun pattern -> (topology, pattern, 1e6))
          [ "all-gather"; "reduce-scatter"; "all-reduce" ])
      [ "ring:4"; "ring:8"; "mesh:2x2"; "mesh:3x3" ]
  in
  let config = { Service.default_config with registry_dir = Some dir } in
  let warm = service ~config () in
  List.iter
    (fun c -> Alcotest.(check string) "warmed" "ok" (status (Service.handle_line warm (line c))))
    warm_configs;
  let entries =
    List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check int) "twelve entries on disk" 12 (List.length entries);
  List.iter
    (fun f ->
      Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
          output_string oc "not json {{{"))
    (List.filteri (fun i _ -> i < 3) (List.sort String.compare entries));
  let records = ref 0 in
  let syntheses = Atomic.make 0 in
  let arrived = Atomic.make 0 in
  let counting ~deadline ~sketch:_ ~seed ~domains topo spec =
    Atomic.incr syntheses;
    (* The burst's synthesis waits until all 8 of its workers have arrived,
       so the other seven meet it in flight. *)
    let t0 = Unix.gettimeofday () in
    while
      Atomic.get arrived > 0 && Atomic.get arrived < 8 && Unix.gettimeofday () -. t0 < 10.
    do
      Unix.sleepf 0.001
    done;
    Synth.synthesize ~seed ~domains ?deadline topo spec
  in
  let svc =
    service
      ~config:{ config with access_log = Some (fun _ -> incr records) }
      ~synthesize:counting ()
  in
  let answered_ok r =
    Alcotest.(check string) "ok" "ok" (status r);
    Alcotest.(check bool) "not degraded" false (bool_field "degraded" r)
  in
  for _ = 1 to 8 do
    List.iter (fun c -> answered_ok (Service.handle_line svc (line c))) warm_configs
  done;
  for mb = 3 to 8 do
    let cold = ("ring:4", "all-gather", float_of_int mb *. 1e6) in
    let r = Service.handle_line svc (line ~extra:[ ("deadline_ms", Json.Number 0.) ] cold) in
    Alcotest.(check bool) "spent deadline degrades" true (bool_field "degraded" r)
  done;
  let disconnected =
    line ~extra:[ ("fail_links", Json.Array [ Json.Number 0. ]) ] ("uniring:4", "all-gather", 1e6)
  in
  for _ = 1 to 4 do
    Alcotest.(check string) "disconnected fabric" "error"
      (status (Service.handle_line svc disconnected))
  done;
  let before = Atomic.get syntheses in
  let pool = Tacos_util.Pool.create ~size:8 () in
  let burst =
    Tacos_util.Pool.map pool
      (fun _ ->
        Atomic.incr arrived;
        Service.handle_line svc (line ("ring:6", "all-gather", 2e6)))
      16
  in
  Tacos_util.Pool.shutdown pool;
  Array.iter answered_ok burst;
  Alcotest.(check int) "one synthesis for the burst" 1 (Atomic.get syntheses - before);
  let s = Service.stats svc in
  List.iter
    (fun (outcome, expected, counted) ->
      Alcotest.(check int) (outcome ^ " counted") expected counted;
      Alcotest.(check (float 0.)) (outcome ^ " exposed") (float_of_int expected)
        (exposed svc "tacos_serve_requests_total" [ ("outcome", outcome) ]))
    [
      ("accepted", 122, s.Service.accepted);
      ("hit", 108, s.Service.hits);
      ("miss", 4, s.Service.misses);
      ("degraded", 6, s.Service.degraded);
      ("deadline_missed", 6, s.Service.deadline_missed);
      ("error", 4, s.Service.errors);
    ];
  Alcotest.(check int) "quarantined" 3 s.Service.quarantined;
  Alcotest.(check (float 0.)) "disk entries exposed" 13.
    (exposed svc "tacos_registry_disk_entries" []);
  Alcotest.(check (float 0.)) "corrupt files exposed" 3.
    (exposed svc "tacos_registry_disk_corrupt" []);
  Alcotest.(check bool) "disk bytes exposed" true
    (exposed svc "tacos_registry_disk_bytes" [] > 0.);
  Alcotest.(check int) "one access record per request" 122 !records;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- export flavors ------------------------------------------------------ *)

let test_export_json () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (req
         [
           ("id", Json.Number 1.);
           ("op", Json.String "export");
           ("topology", Json.String "ring:4");
           ("pattern", Json.String "all-gather");
           ("size", Json.Number 1e6);
         ])
  in
  Alcotest.(check string) "ok" "ok" (status r);
  match Json.member "schedule" (parse_response r) with
  | Some (Json.Object _) -> ()
  | _ -> Alcotest.failf "no embedded schedule in %s" r

let test_export_csv () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (req
         [
           ("id", Json.Number 1.);
           ("op", Json.String "export");
           ("topology", Json.String "ring:4");
           ("pattern", Json.String "all-gather");
           ("size", Json.Number 1e6);
           ("format", Json.String "csv");
         ])
  in
  Alcotest.(check string) "ok" "ok" (status r);
  match Json.member "csv" (parse_response r) with
  | Some (Json.String csv) ->
    let lines = String.split_on_char '\n' (String.trim csv) in
    Alcotest.(check bool) "starts with the sizing header" true
      (match lines with l :: _ -> l = "NPUs Count,4" | [] -> false);
    Alcotest.(check bool) "has the per-link header" true
      (List.exists
         (fun l -> l = "SrcID,DestID,Latency (ns),Bandwidth (GB/s),Chunks (ID:ns:ns)")
         lines);
    (* 4-NPU bidirectional ring: 8 links, one row each after 7 header rows. *)
    Alcotest.(check int) "one row per link" (7 + 8) (List.length lines)
  | _ -> Alcotest.failf "no csv in %s" r

let test_tune_op () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (req
         [
           ("id", Json.Number 1.);
           ("op", Json.String "tune");
           ("topology", Json.String "mesh:2x2");
           ("pattern", Json.String "all-gather");
           ("size", Json.Number 4e6);
           ("candidates", Json.Array [ Json.Number 1.; Json.Number 2. ]);
         ])
  in
  Alcotest.(check string) "ok" "ok" (status r);
  match Json.member "chunks_per_npu" (parse_response r) with
  | Some (Json.Number c) ->
    Alcotest.(check bool) "winner among candidates" true (c = 1. || c = 2.)
  | _ -> Alcotest.failf "no chunks_per_npu in %s" r

(* --- sketches ------------------------------------------------------------ *)

let sketch_field rules = ("sketch", Json.Object [ ("rules", Json.Array rules) ])
let forbid l = Json.Object [ ("forbid", Json.Number (float_of_int l)) ]

let test_sketch_request_separate_cache_line () =
  let svc = service () in
  (* Unconstrained first, then the same (topology, spec) under a sketch:
     the sketched request must be its own miss, not a cache hit aliasing
     the unconstrained schedule. *)
  let plain = Service.handle_line svc (synth_req "ring:4") in
  Alcotest.(check string) "plain ok" "ok" (status plain);
  let sketched =
    Service.handle_line svc
      (synth_req ~id:2. ~extra:[ sketch_field [ forbid 0 ] ] "ring:4")
  in
  Alcotest.(check string) "sketched ok" "ok" (status sketched);
  Alcotest.(check bool) "sketched is a fresh miss" false
    (bool_field "cached" sketched);
  (* Replaying the sketched request hits its own line. *)
  let again =
    Service.handle_line svc
      (synth_req ~id:3. ~extra:[ sketch_field [ forbid 0 ] ] "ring:4")
  in
  Alcotest.(check bool) "sketched replay hits" true (bool_field "cached" again);
  let s = Service.stats svc in
  Alcotest.(check int) "two misses" 2 s.Service.misses;
  Alcotest.(check int) "one hit" 1 s.Service.hits

let test_sketch_infeasible_is_structured_error () =
  let svc = service () in
  (* Forbidding both directions of two opposite hops cuts the 4-ring into
     {1,2} and {3,0}: typed infeasibility, reported as a structured error
     before any synthesis. *)
  let r =
    Service.handle_line svc
      (synth_req ~extra:[ sketch_field (List.map forbid [ 0; 1; 4; 5 ]) ] "ring:4")
  in
  Alcotest.(check string) "error" "error" (status r);
  Alcotest.(check bool)
    (Printf.sprintf "names the disconnection (got %s)" r)
    true
    (has_substring "sketch" r && has_substring "disconnects" r)

let test_sketch_malformed_is_structured_error () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (synth_req
         ~extra:
           [
             ( "sketch",
               Json.Object
                 [ ("rules", Json.Array [ Json.Object [ ("prefer", Json.Number 0.) ] ]) ]
             );
           ]
         "ring:4")
  in
  Alcotest.(check string) "error" "error" (status r);
  Alcotest.(check bool)
    (Printf.sprintf "names the missing weight (got %s)" r)
    true
    (has_substring "weight" r)

let test_tune_under_sketch () =
  let svc = service () in
  let r =
    Service.handle_line svc
      (req
         [
           ("id", Json.Number 1.);
           ("op", Json.String "tune");
           ("topology", Json.String "ring:4");
           ("pattern", Json.String "all-gather");
           ("size", Json.Number 4e6);
           ("candidates", Json.Array [ Json.Number 1.; Json.Number 2. ]);
           sketch_field [ forbid 0 ];
         ])
  in
  Alcotest.(check string) "ok" "ok" (status r);
  match Json.member "chunks_per_npu" (parse_response r) with
  | Some (Json.Number c) ->
    Alcotest.(check bool) "winner among candidates" true (c = 1. || c = 2.)
  | _ -> Alcotest.failf "no chunks_per_npu in %s" r

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick test_protocol_rejects;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "malformed line -> structured error" `Quick
            test_malformed_line_is_structured_error;
          Alcotest.test_case "zero dimension -> plain error" `Quick
            test_zero_dimension_is_plain_error;
          Alcotest.test_case "oversized topology -> plain error" `Quick
            test_oversized_topology_is_plain_error;
          Alcotest.test_case "non-finite size -> size error" `Quick
            test_non_finite_size_is_size_error;
          Alcotest.test_case "miss then cached" `Quick test_miss_then_cached;
          Alcotest.test_case "unwritable registry still served" `Quick
            test_unwritable_registry_served;
          Alcotest.test_case "expired deadline degrades" `Quick
            test_expired_deadline_degrades;
          Alcotest.test_case "backend deadline raise degrades" `Quick
            test_backend_deadline_exceeded_degrades;
          Alcotest.test_case "cache hit served past deadline" `Quick
            test_cache_hit_served_past_deadline;
          Alcotest.test_case "flaky backend retries (key released)" `Quick
            test_flaky_backend_retries_through_server;
          Alcotest.test_case "disconnected fault -> structured error" `Quick
            test_disconnected_fault_is_structured_error;
          Alcotest.test_case "saturated queue sheds" `Quick test_overload_sheds;
          Alcotest.test_case "ping and stats" `Quick test_ping_and_stats;
          Alcotest.test_case "unicode id echoed" `Quick test_unicode_id_echoed;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics verb exposes the counters" `Quick
            test_metrics_verb;
          Alcotest.test_case "metrics prefix filter" `Quick
            test_metrics_prefix_filter;
          Alcotest.test_case "extended stats" `Quick test_extended_stats;
          Alcotest.test_case "access log records" `Quick test_access_log;
          Alcotest.test_case "each response counted once" `Quick
            test_each_response_counted_once;
        ] );
      ( "trace",
        [
          Alcotest.test_case "replayed trace totals" `Quick test_replayed_trace;
        ] );
      ( "export-and-tune",
        [
          Alcotest.test_case "export json" `Quick test_export_json;
          Alcotest.test_case "export csv" `Quick test_export_csv;
          Alcotest.test_case "tune" `Quick test_tune_op;
        ] );
      ( "sketches",
        [
          Alcotest.test_case "sketched requests get their own cache line" `Quick
            test_sketch_request_separate_cache_line;
          Alcotest.test_case "infeasible sketch -> structured error" `Quick
            test_sketch_infeasible_is_structured_error;
          Alcotest.test_case "malformed sketch -> structured error" `Quick
            test_sketch_malformed_is_structured_error;
          Alcotest.test_case "tune under a sketch" `Quick test_tune_under_sketch;
        ] );
    ]
