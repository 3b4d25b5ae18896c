(* Namespaces of the substrate libraries. *)
module Json = Tacos_util.Json
module Deadline = Tacos_util.Deadline
module Clock = Tacos_util.Clock
module Logfmt = Tacos_util.Logfmt
module Obs = Tacos_obs.Obs
module Quantile = Tacos_obs.Quantile
module Expo = Tacos_obs.Expo
module Topology = Tacos_topology.Topology
module Link = Tacos_topology.Link
module Spec = Tacos_collective.Spec
module Pattern = Tacos_collective.Pattern
module Schedule = Tacos_collective.Schedule
module Parse = Tacos_collective.Parse
module Synth = Tacos.Synthesizer
module Router = Tacos.Router
module Registry = Tacos.Registry
module Tuner = Tacos.Tuner
module Engine = Tacos_sim.Engine
module Algo = Tacos_baselines.Algo
module Resilience = Tacos_resilience.Resilience
module Fault = Tacos_resilience.Fault
module Sketch = Tacos_sketch.Sketch

(* Registry size accounting (the input signal of the disk-cap eviction in
   [Registry]): running-max gauges refreshed on every stats/metrics
   render. *)
let g_reg_entries = Obs.gauge "registry.entries"
let g_reg_disk_bytes = Obs.gauge "registry.disk_bytes"

type config = {
  queue_limit : int;
  domains : int;
  trials : int;
  default_deadline_ms : float option;
  registry_dir : string option;
  max_disk_bytes : int option;
  seed : int;
  access_log : (string -> unit) option;
}

let default_config =
  {
    queue_limit = 16;
    domains = 1;
    trials = 1;
    default_deadline_ms = None;
    registry_dir = None;
    max_disk_bytes = None;
    seed = 42;
    access_log = None;
  }

type backend =
  deadline:Deadline.t option ->
  sketch:Synth.constraints option ->
  seed:int ->
  domains:int ->
  Topology.t ->
  Spec.t ->
  Synth.result

(* The verbs latency sketches and access-log records are keyed by. *)
let verbs = [ "synthesize"; "tune"; "export"; "ping"; "stats"; "metrics" ]

let verb_name = function
  | Protocol.Synthesize -> "synthesize"
  | Protocol.Tune -> "tune"
  | Protocol.Export -> "export"
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"

type t = {
  config : config;
  registry : Registry.t;
  backend : backend;
  started : Clock.span;  (** server birth — the access log's monotonic epoch *)
  lock : Mutex.t;
  log_lock : Mutex.t;  (** serializes the access-log sink, never nested in [lock] *)
  mutable inflight : int;
  mutable ema_ms : float;  (** latency EMA — the [overloaded] retry hint *)
  mutable accepted : int;
  mutable shed : int;
  mutable hits : int;
  mutable misses : int;
  mutable degraded : int;
  mutable deadline_missed : int;
  mutable errors : int;
  (* Latency sketches, all in milliseconds, guarded by [lock]. *)
  lat_by_verb : (string * Quantile.t) list;  (** end-to-end, per verb *)
  q_queue_wait : Quantile.t;  (** request start -> admission decision *)
  q_synthesis : Quantile.t;  (** time inside the miss backend *)
  q_export : Quantile.t;  (** schedule serialization (export requests) *)
}

type stats = {
  accepted : int;
  shed : int;
  hits : int;
  misses : int;
  degraded : int;
  deadline_missed : int;
  errors : int;
  quarantined : int;
  evicted : int;
  inflight : int;
  uptime_seconds : float;
  entries : int;
  disk : Registry.disk_usage;
}

let create ?(config = default_config) ?synthesize () =
  if config.queue_limit <= 0 then
    invalid_arg "Service.create: queue_limit must be positive";
  let backend =
    match synthesize with
    | Some f -> f
    | None ->
      fun ~deadline ~sketch ~seed ~domains topo spec ->
        Router.synthesize_any ~seed ~trials:config.trials ~domains ?deadline ?sketch topo spec
  in
  {
    config;
    registry =
      Registry.create ?dir:config.registry_dir
        ?max_disk_bytes:config.max_disk_bytes ();
    backend;
    started = Clock.start ();
    lock = Mutex.create ();
    log_lock = Mutex.create ();
    inflight = 0;
    ema_ms = 0.;
    accepted = 0;
    shed = 0;
    hits = 0;
    misses = 0;
    degraded = 0;
    deadline_missed = 0;
    errors = 0;
    lat_by_verb = List.map (fun v -> (v, Quantile.create ())) verbs;
    q_queue_wait = Quantile.create ();
    q_synthesis = Quantile.create ();
    q_export = Quantile.create ();
  }

let registry t = t.registry
let uptime_seconds t = Clock.elapsed t.started

let stats t =
  let disk = Registry.disk_usage t.registry in
  let entries = Registry.entries t.registry in
  Obs.observe_max g_reg_entries (float_of_int entries);
  Obs.observe_max g_reg_disk_bytes (float_of_int disk.Registry.disk_bytes);
  Mutex.lock t.lock;
  let s =
    {
      accepted = t.accepted;
      shed = t.shed;
      hits = t.hits;
      misses = t.misses;
      degraded = t.degraded;
      deadline_missed = t.deadline_missed;
      errors = t.errors;
      quarantined = Registry.quarantined t.registry;
      evicted = Registry.evicted t.registry;
      inflight = t.inflight;
      uptime_seconds = uptime_seconds t;
      entries;
      disk;
    }
  in
  Mutex.unlock t.lock;
  s

let bump t set =
  Mutex.lock t.lock;
  set t;
  Mutex.unlock t.lock

let elapsed_ms t0 = Clock.elapsed t0 *. 1e3

let record_ms t q ms =
  Mutex.lock t.lock;
  Quantile.add q ms;
  Mutex.unlock t.lock

let respond = Protocol.response

let error_response t ~id ?failure msg =
  bump t (fun t -> t.errors <- t.errors + 1);
  respond ~id ~status:"error"
    (("message", Json.String msg)
    ::
    (match failure with Some f -> [ ("failure", f) ] | None -> []))

(* --- export flavors ------------------------------------------------------ *)

(* The CSV interchange schema of SNIPPETS.md §1 (the original artifact's
   output): sizing/timing header rows, then one row per link with its
   chunk occupancy as "id:send_ns:recv_ns" cells. *)
let csv_of_result topo (result : Synth.result) =
  let spec = result.Synth.spec in
  let buf = Buffer.create 1024 in
  let row cells =
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'
  in
  let ns s = s *. 1e9 in
  row [ "NPUs Count"; string_of_int (Topology.num_npus topo) ];
  row [ "Links Count"; string_of_int (Topology.num_links topo) ];
  row [ "Chunks Count"; string_of_int (Spec.num_chunks spec) ];
  row [ "Chunk Size"; Printf.sprintf "%.17g" (Spec.chunk_size spec) ];
  row [ "Collective Time"; Printf.sprintf "%.0f" (ns result.Synth.collective_time); "ns" ];
  row [ "Synthesis Time"; Printf.sprintf "%.6f" result.Synth.stats.Synth.wall_seconds; "s" ];
  row [ "SrcID"; "DestID"; "Latency (ns)"; "Bandwidth (GB/s)"; "Chunks (ID:ns:ns)" ];
  let per_edge = Array.make (Topology.num_links topo) [] in
  List.iter
    (fun (s : Schedule.send) ->
      per_edge.(s.Schedule.edge) <- s :: per_edge.(s.Schedule.edge))
    (Schedule.sends result.Synth.schedule);
  List.iter
    (fun (e : Topology.edge) ->
      let chunks =
        List.sort
          (fun (a : Schedule.send) (b : Schedule.send) ->
            compare (a.Schedule.start, a.Schedule.chunk)
              (b.Schedule.start, b.Schedule.chunk))
          per_edge.(e.id)
        |> List.map (fun (s : Schedule.send) ->
               Printf.sprintf "%d:%.0f:%.0f" s.Schedule.chunk (ns s.Schedule.start)
                 (ns s.Schedule.finish))
      in
      row
        ([
           string_of_int e.src;
           string_of_int e.dst;
           Printf.sprintf "%.0f" (ns (Link.cost e.link 0.));
           Printf.sprintf "%g" (Link.bandwidth e.link /. 1e9);
         ]
        @ chunks))
    (Topology.edges topo);
  Buffer.contents buf

let schedule_fields t (req : Protocol.request) topo (result : Synth.result) =
  match req.Protocol.op with
  | Protocol.Export ->
    let s = Clock.start () in
    let fields =
      match req.Protocol.format with
      | `Json ->
        let text = Schedule.to_json ~spec:result.Synth.spec result.Synth.schedule in
        let doc = Result.value ~default:(Json.String text) (Json.parse text) in
        [ ("schedule", doc) ]
      | `Csv -> [ ("csv", Json.String (csv_of_result topo result)) ]
    in
    record_ms t t.q_export (elapsed_ms s);
    fields
  | _ -> []

(* --- the collective ops -------------------------------------------------- *)

let ok_fields ~t0 ~cached ~degraded ~algorithm ~collective_time ~sends extra =
  [
    ("cached", Json.Bool cached);
    ("degraded", Json.Bool degraded);
    ("algorithm", Json.String algorithm);
    ("collective_time", Json.Number collective_time);
    ("sends", Json.Number (float_of_int sends));
  ]
  @ extra
  @ [ ("elapsed_ms", Json.Number (elapsed_ms t0)) ]

(* Graceful degradation: the answer of last resort when a synthesis ran
   out of time (or got stuck). The Resilience ladder is called with the
   *healthy* topology plus the fault set — its pre-attempt deadline gate
   skips straight to the best *feasible* baseline when the deadline has
   passed, so this path is bounded work — and the response is tagged
   [degraded:true]. Degraded results are deliberately not cached: a later
   request with headroom should synthesize the real schedule. *)
let degrade t ~id ~t0 ~healthy ~faults ~deadline ~seed ~spec ~deadline_missed =
  if deadline_missed then
    bump t (fun t -> t.deadline_missed <- t.deadline_missed + 1);
  match
    Resilience.synthesize ~seed ~trials:t.config.trials ~domains:t.config.domains
      ?deadline ~faults healthy spec
  with
  | Ok { Resilience.plan = Resilience.Baseline { algo; report }; _ } ->
    bump t (fun t -> t.degraded <- t.degraded + 1);
    let slack =
      match deadline with
      | Some d -> [ ("deadline_slack_ms", Json.Number (Deadline.slack_ms d)) ]
      | None -> []
    in
    respond ~id ~status:"ok"
      (ok_fields ~t0 ~cached:false ~degraded:true ~algorithm:(Algo.name algo)
         ~collective_time:report.Engine.finish_time ~sends:0 slack)
  | Ok { Resilience.plan = Resilience.Synthesized result; _ } ->
    (* The ladder got a schedule out after all (e.g. a reseed landed). *)
    respond ~id ~status:"ok"
      (ok_fields ~t0 ~cached:false ~degraded:false ~algorithm:"tacos"
         ~collective_time:result.Synth.collective_time
         ~sends:(Schedule.num_sends result.Synth.schedule)
         [])
  | Error failure ->
    error_response t ~id
      ~failure:(Resilience.failure_to_json failure)
      (Format.asprintf "%a" Resilience.pp_failure failure)

let handle_synthesize t (req : Protocol.request) ~t0 ~healthy ~work_topo ~faults
    ~deadline ~seed ~spec ~sketch =
  let id = req.Protocol.id in
  let answer ~cached (result : Synth.result) =
    if cached then bump t (fun t -> t.hits <- t.hits + 1)
    else bump t (fun t -> t.misses <- t.misses + 1);
    respond ~id ~status:"ok"
      (ok_fields ~t0 ~cached ~degraded:false ~algorithm:"tacos"
         ~collective_time:result.Synth.collective_time
         ~sends:(Schedule.num_sends result.Synth.schedule)
         (schedule_fields t req work_topo result))
  in
  (* Sketched requests get their own cache line: the sketch digest becomes
     the registry key variant, so constrained and unconstrained schedules
     for the same (topology, spec) never alias. *)
  let variant = Option.map (fun (sk, _) -> Sketch.digest sk) sketch in
  let constraints = Option.map snd sketch in
  (* Cache peek first: hits are served even past the deadline — answering
     from memory is cheaper than degrading. *)
  match Registry.find_cached ?variant t.registry work_topo spec with
  | Some result -> answer ~cached:true result
  | None -> (
    let synthesize ~seed ~domains topo spec =
      let s = Clock.start () in
      Fun.protect
        ~finally:(fun () -> record_ms t t.q_synthesis (elapsed_ms s))
        (fun () -> t.backend ~deadline ~sketch:constraints ~seed ~domains topo spec)
    in
    match
      Registry.find_or_synthesize ~seed ~domains:t.config.domains ~synthesize
        ?variant t.registry work_topo spec
    with
    | result, `Hit -> answer ~cached:true result
    | result, `Miss -> answer ~cached:false result
    | exception Synth.Deadline_exceeded ->
      degrade t ~id ~t0 ~healthy ~faults ~deadline ~seed ~spec
        ~deadline_missed:true
    | exception (Synth.Stuck _ | Synth.Unsupported _) ->
      (* The single-flight key was released on the raise, so a retry on a
         healthier fabric is clean; meanwhile fall back structurally. *)
      degrade t ~id ~t0 ~healthy ~faults ~deadline ~seed ~spec
        ~deadline_missed:false)

let handle_tune t (req : Protocol.request) ~t0 ~healthy ~work_topo ~faults
    ~deadline ~seed ~spec ~pattern =
  let id = req.Protocol.id in
  let synthesize ~seed topo spec =
    (* Compiled per candidate: pin chunk ids are validated against each
       candidate's own chunk space. *)
    let sketch =
      Option.map (fun sk -> Sketch.compile topo spec sk) req.Protocol.sketch
    in
    let s = Clock.start () in
    Fun.protect
      ~finally:(fun () -> record_ms t t.q_synthesis (elapsed_ms s))
      (fun () ->
        t.backend ~deadline ~sketch ~seed ~domains:t.config.domains topo spec)
  in
  match
    Tuner.tune ~seed ?candidates:req.Protocol.candidates ~synthesize work_topo
      ~pattern ~size:req.Protocol.size
  with
  | choice ->
    bump t (fun t -> t.misses <- t.misses + 1);
    respond ~id ~status:"ok"
      (ok_fields ~t0 ~cached:false ~degraded:false ~algorithm:"tacos"
         ~collective_time:choice.Tuner.simulated_time
         ~sends:(Schedule.num_sends choice.Tuner.result.Synth.schedule)
         [
           ( "chunks_per_npu",
             Json.Number (float_of_int choice.Tuner.chunks_per_npu) );
         ])
  | exception Synth.Deadline_exceeded ->
    degrade t ~id ~t0 ~healthy ~faults ~deadline ~seed ~spec
      ~deadline_missed:true
  | exception (Synth.Stuck _ | Synth.Unsupported _) ->
    degrade t ~id ~t0 ~healthy ~faults ~deadline ~seed ~spec
      ~deadline_missed:false
  | exception Sketch.Infeasible off ->
    error_response t ~id ("sketch: " ^ Sketch.offender_to_string off)
  | exception Invalid_argument msg -> error_response t ~id ("tune: " ^ msg)

let handle_collective t (req : Protocol.request) ~t0 =
  let id = req.Protocol.id in
  match req.Protocol.topology with
  | None -> error_response t ~id "missing topology"
  | Some desc -> (
    match Parse.parse_topology desc with
    | Error e -> error_response t ~id ("topology: " ^ e)
    | Ok healthy -> (
      let npus = Topology.num_npus healthy in
      match Parse.parse_pattern req.Protocol.pattern npus with
      | Error e -> error_response t ~id ("pattern: " ^ e)
      | Ok pattern -> (
        match
          Spec.make ~chunks_per_npu:req.Protocol.chunks
            ~buffer_size:req.Protocol.size ~pattern ~npus ()
        with
        | exception Invalid_argument msg -> error_response t ~id msg
        | spec -> (
          let faults =
            List.map (fun l -> Fault.Kill_link l) req.Protocol.fail_links
          in
          match Fault.validate healthy faults with
          | Error e -> error_response t ~id ("fail_links: " ^ e)
          | Ok () -> (
            (* The registry keys on the fabric actually served — the
               degraded copy when links were killed — while the Resilience
               fallback gets the healthy topology + fault set so failures
               can name the disconnecting fault. *)
            let work_topo =
              if faults = [] then healthy else Fault.apply healthy faults
            in
            let deadline_ms =
              match req.Protocol.deadline_ms with
              | Some _ as d -> d
              | None -> t.config.default_deadline_ms
            in
            let deadline = Option.map Deadline.after_ms deadline_ms in
            let seed = Option.value ~default:t.config.seed req.Protocol.seed in
            match req.Protocol.op with
            | Protocol.Tune ->
              handle_tune t req ~t0 ~healthy ~work_topo ~faults ~deadline ~seed
                ~spec ~pattern
            | _ -> (
              (* Validate the sketch against the fabric actually served,
                 before any cache or synthesis work: infeasibility is a
                 typed, structured answer, not a late Stuck. *)
              let sketched =
                match req.Protocol.sketch with
                | None -> Ok None
                | Some sk -> (
                  match Sketch.check work_topo spec sk with
                  | Ok c -> Ok (Some (sk, c))
                  | Error off -> Error off)
              in
              match sketched with
              | Error off ->
                error_response t ~id
                  ("sketch: " ^ Sketch.offender_to_string off)
              | Ok sketch ->
                handle_synthesize t req ~t0 ~healthy ~work_topo ~faults
                  ~deadline ~seed ~spec ~sketch))))))

(* --- telemetry rendering -------------------------------------------------- *)

let quantile_fields q =
  ("count", Json.Number (float_of_int (Quantile.count q)))
  :: List.map
       (fun (p, v) -> (Printf.sprintf "p%g" (p *. 100.), Json.Number v))
       (Quantile.summary q)

(* Per-verb quantile summaries for the stats response: only verbs that
   have seen traffic appear. *)
let latency_json t =
  Mutex.lock t.lock;
  let fields =
    List.filter_map
      (fun (verb, q) ->
        if Quantile.count q = 0 then None
        else Some (verb, Json.Object (quantile_fields q)))
      t.lat_by_verb
  in
  Mutex.unlock t.lock;
  Json.Object fields

let stats_fields t st =
  [
    ("accepted", Json.Number (float_of_int st.accepted));
    ("shed", Json.Number (float_of_int st.shed));
    ("hits", Json.Number (float_of_int st.hits));
    ("misses", Json.Number (float_of_int st.misses));
    ("degraded", Json.Number (float_of_int st.degraded));
    ("deadline_missed", Json.Number (float_of_int st.deadline_missed));
    ("errors", Json.Number (float_of_int st.errors));
    ("quarantined", Json.Number (float_of_int st.quarantined));
    ("evicted", Json.Number (float_of_int st.evicted));
    ("inflight", Json.Number (float_of_int st.inflight));
    ("uptime_seconds", Json.Number st.uptime_seconds);
    ( "registry",
      Json.Object
        [
          ("entries", Json.Number (float_of_int st.entries));
          ("disk_entries", Json.Number (float_of_int st.disk.Registry.disk_entries));
          ("disk_corrupt", Json.Number (float_of_int st.disk.Registry.disk_corrupt));
          ("disk_bytes", Json.Number (float_of_int st.disk.Registry.disk_bytes));
        ] );
    ("latency_ms", latency_json t);
  ]

(* The exposition families owned by the service itself. These read the
   always-on plain counters, so a scrape is meaningful (and the bench can
   assert on it) even when the Obs registry is disabled. *)
let service_families t =
  let st = stats t in
  let gauge name help v = Expo.family ~name ~help ~kind:Expo.Gauge [ Expo.sample v ] in
  let outcome name v = Expo.sample ~labels:[ ("outcome", name) ] (float_of_int v) in
  let requests =
    Expo.family ~name:"tacos_serve_requests_total"
      ~help:"Requests by lifecycle outcome since server start." ~kind:Expo.Counter
      [
        outcome "accepted" st.accepted;
        outcome "shed" st.shed;
        outcome "hit" st.hits;
        outcome "miss" st.misses;
        outcome "degraded" st.degraded;
        outcome "deadline_missed" st.deadline_missed;
        outcome "error" st.errors;
      ]
  in
  let quarantined =
    Expo.family ~name:"tacos_registry_quarantined_total"
      ~help:"Corrupt cache files quarantined since server start." ~kind:Expo.Counter
      [ Expo.sample (float_of_int st.quarantined) ]
  in
  let evicted =
    Expo.family ~name:"tacos_registry_evicted_total"
      ~help:"Cache files deleted to stay under the disk cap since server start."
      ~kind:Expo.Counter
      [ Expo.sample (float_of_int st.evicted) ]
  in
  Mutex.lock t.lock;
  let verb_samples =
    List.concat_map
      (fun (verb, q) ->
        if Quantile.count q = 0 then []
        else
          (Expo.of_quantile ~name:"tacos_serve_latency_ms" ~help:""
             ~labels:[ ("verb", verb) ] q)
            .Expo.samples)
      t.lat_by_verb
  in
  let stage name help q = Expo.of_quantile ~name ~help q in
  let stages =
    [
      stage "tacos_serve_queue_wait_ms"
        "Request start to admission decision (milliseconds)." t.q_queue_wait;
      stage "tacos_serve_synthesis_ms"
        "Time inside the miss-path synthesis backend (milliseconds)." t.q_synthesis;
      stage "tacos_serve_export_ms"
        "Schedule serialization time for export requests (milliseconds)." t.q_export;
    ]
  in
  Mutex.unlock t.lock;
  [
    gauge "tacos_serve_uptime_seconds" "Seconds since server start." st.uptime_seconds;
    gauge "tacos_serve_inflight" "Requests currently past admission."
      (float_of_int st.inflight);
    requests;
    Expo.family ~name:"tacos_serve_latency_ms"
      ~help:"End-to-end request latency by verb (milliseconds)." ~kind:Expo.Summary
      verb_samples;
  ]
  @ stages
  @ [
      gauge "tacos_registry_entries" "Schedules cached in memory."
        (float_of_int st.entries);
      gauge "tacos_registry_disk_entries" "Live cache entry files on disk."
        (float_of_int st.disk.Registry.disk_entries);
      gauge "tacos_registry_disk_corrupt" "Quarantined *.corrupt files on disk."
        (float_of_int st.disk.Registry.disk_corrupt);
      gauge "tacos_registry_disk_bytes"
        "Disk bytes held by the cache, quarantined files included."
        (float_of_int st.disk.Registry.disk_bytes);
      quarantined;
      evicted;
    ]

let metrics ?prefix t =
  let families = service_families t @ Expo.of_obs () in
  let families =
    match prefix with
    | None -> families
    | Some p ->
      List.filter
        (fun f -> String.starts_with ~prefix:p (Expo.sanitize_name f.Expo.name))
        families
  in
  Expo.render families

(* --- access log ----------------------------------------------------------- *)

let id_string = function
  | Json.Null -> "-"
  | Json.String s -> s
  | j -> Json.encode j

(* The outcome an operator greps for, recovered from the response itself so
   the log can never disagree with what the client saw. *)
let classify op response =
  match Json.parse response with
  | Error _ -> "error"
  | Ok doc -> (
    let flag k = match Json.member k doc with Some (Json.Bool b) -> b | _ -> false in
    match Option.bind (Json.member "status" doc) Json.to_string with
    | Some "overloaded" -> "shed"
    | Some "ok" -> (
      match op with
      | Some (Protocol.Synthesize | Protocol.Tune | Protocol.Export) ->
        if flag "degraded" then "degraded"
        else if flag "cached" then "hit"
        else "miss"
      | _ -> "ok")
    | Some _ | None -> "error")

let access_log_line t ~t0 ~id ~verb ~deadline_ms ~outcome ~response =
  match t.config.access_log with
  | None -> ()
  | Some sink ->
    let ms = elapsed_ms t0 in
    let pairs =
      [
        (* Monotonic span since server start: bursts of sheds and deadline
           expiries stay reconstructible on a timeline. *)
        ("t", Printf.sprintf "%.6f" (uptime_seconds t));
        ("id", id_string id);
        ("verb", verb);
        ("outcome", outcome);
        ("elapsed_ms", Printf.sprintf "%.3f" ms);
      ]
      @ (match deadline_ms with
        | Some d ->
          [
            ("deadline_ms", Printf.sprintf "%g" d);
            ("slack_ms", Printf.sprintf "%.3f" (d -. ms));
          ]
        | None -> [])
      @ [ ("bytes_out", string_of_int (String.length response)) ]
    in
    let line = Logfmt.encode pairs in
    Mutex.lock t.log_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.log_lock) (fun () -> sink line)

(* --- request lifecycle --------------------------------------------------- *)

let handle_request t (req : Protocol.request) ~t0 =
  match req.Protocol.op with
  | Protocol.Ping ->
    respond ~id:req.Protocol.id ~status:"ok" [ ("pong", Json.Bool true) ]
  | Protocol.Stats ->
    respond ~id:req.Protocol.id ~status:"ok" (stats_fields t (stats t))
  | Protocol.Metrics ->
    respond ~id:req.Protocol.id ~status:"ok"
      [
        ("uptime_seconds", Json.Number (uptime_seconds t));
        ("metrics", Json.String (metrics ?prefix:req.Protocol.prefix t));
      ]
  | Protocol.Synthesize | Protocol.Tune | Protocol.Export -> (
      (* Bounded admission: beyond [queue_limit] in-flight requests, shed
         with a structured reply and a retry hint instead of queueing
         unboundedly behind syntheses that take seconds. *)
      let admitted =
        Mutex.lock t.lock;
        if t.inflight >= t.config.queue_limit then begin
          t.shed <- t.shed + 1;
          let hint = Float.max 1. t.ema_ms in
          Mutex.unlock t.lock;
          Error hint
        end
        else begin
          t.inflight <- t.inflight + 1;
          t.accepted <- t.accepted + 1;
          Mutex.unlock t.lock;
          Ok ()
        end
      in
      record_ms t t.q_queue_wait (elapsed_ms t0);
      match admitted with
      | Error retry_after_ms ->
        respond ~id:req.Protocol.id ~status:"overloaded"
          [ ("retry_after_ms", Json.Number retry_after_ms) ]
      | Ok () ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.lock;
            t.inflight <- t.inflight - 1;
            let ms = elapsed_ms t0 in
            t.ema_ms <-
              (if t.ema_ms = 0. then ms else (0.8 *. t.ema_ms) +. (0.2 *. ms));
            Mutex.unlock t.lock)
          (fun () ->
            (* The last line of defense: a request must never take the
               server down. Anything unexpected maps to a structured
               error response. *)
            try handle_collective t req ~t0 with
            | e ->
              error_response t ~id:req.Protocol.id
                ("internal error: " ^ Printexc.to_string e)))

let handle_line t line =
  let t0 = Clock.start () in
  let parsed = Protocol.parse_request line in
  let response =
    match parsed with
    | Error (id, msg) -> error_response t ~id msg
    | Ok req -> handle_request t req ~t0
  in
  let verb, id, op, deadline_ms =
    match parsed with
    | Error (id, _) -> ("invalid", id, None, None)
    | Ok req ->
      let deadline_ms =
        match req.Protocol.op with
        | Protocol.Synthesize | Protocol.Tune | Protocol.Export -> (
          match req.Protocol.deadline_ms with
          | Some _ as d -> d
          | None -> t.config.default_deadline_ms)
        | _ -> None
      in
      (verb_name req.Protocol.op, req.Protocol.id, Some req.Protocol.op, deadline_ms)
  in
  (match List.assoc_opt verb t.lat_by_verb with
  | Some q -> record_ms t q (elapsed_ms t0)
  | None -> ());
  access_log_line t ~t0 ~id ~verb ~deadline_ms ~outcome:(classify op response)
    ~response;
  response
