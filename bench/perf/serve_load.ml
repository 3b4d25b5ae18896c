(* The serving workloads. serve-hot is the registry's read path under an
   open loop of independent clients; serve-churn is its write side under a
   closed loop. Both drive one in-process [Service] through [handle_line],
   the same entry point the stdio and socket transports use. *)

module Json = Tacos_util.Json
module Rng = Tacos_util.Rng
module Parse = Tacos_collective.Parse
module Spec = Tacos_collective.Spec
module Schedule = Tacos_collective.Schedule
module Topology = Tacos_topology.Topology
module Service = Tacos_serve.Service
module Expo = Tacos_obs.Expo

let num i = Json.Number (float_of_int i)

let line ~id ~op fields =
  Json.encode (Json.Object (("id", num id) :: ("op", Json.String op) :: fields))

let collective ~topology ~pattern ~size =
  [
    ("topology", Json.String topology);
    ("pattern", Json.String pattern);
    ("size", Json.Number size);
  ]

(* Lines the protocol or the service must answer with an [error] status. *)
let malformed =
  [|
    "not json {";
    {|{"op":"synthesize","pattern":"all-gather"}|};
    {|{"op":"frobnicate"}|};
    {|{"op":"synthesize","topology":"blorp:3","pattern":"all-gather"}|};
    {|{"op":"synthesize","topology":"mesh:4x4","pattern":"all-sideways"}|};
  |]

(* --- checking responses --------------------------------------------------- *)

let ( let* ) = Result.bind

let parse_response r =
  Result.map_error (fun e -> "response is not JSON: " ^ e) (Json.parse r)

let field_str k doc = Option.bind (Json.member k doc) Json.to_string
let field_num k doc = Option.bind (Json.member k doc) Json.to_float
let field_bool k doc = match Json.member k doc with Some (Json.Bool b) -> Some b | _ -> None

let status doc =
  match field_str "status" doc with
  | Some "ok" -> Ok ()
  | Some "overloaded" -> Error "shed"
  | Some s ->
    Error (Printf.sprintf "status %s: %s" s
             (Option.value ~default:"" (field_str "message" doc)))
  | None -> Error "no status"

(* An ok collective answer, not degraded, cached or not as expected (either,
   without [cached]); its collective time. *)
let collective_ok ?cached doc =
  let* () = status doc in
  if field_bool "degraded" doc <> Some false then Error "degraded answer"
  else if Option.is_some cached && field_bool "cached" doc <> cached then
    Error (if cached = Some true then "expected a cache hit" else "expected a miss")
  else
    match field_num "collective_time" doc with
    | Some t when t > 0. -> Ok t
    | _ -> Error "no positive collective_time"

let rejected doc =
  match field_str "status" doc with
  | Some "error" -> Ok ()
  | _ -> Error "expected an error response"

let same_time ~expected t =
  if t = expected then Ok ()
  else Error (Printf.sprintf "collective_time %.17g, expected %.17g" t expected)

(* Counters and stage sums the service exposes, read once after a run. *)
let service_extras svc =
  let st = Service.stats svc in
  let samples =
    match Expo.parse (Service.metrics ~prefix:"tacos_serve_" svc) with
    | Ok s -> s
    | Error _ -> []
  in
  let sum name =
    List.fold_left
      (fun acc (e : Expo.exposed) -> if e.Expo.metric = name then acc +. e.Expo.v else acc)
      0. samples
  in
  let i = float_of_int in
  [
    ("serve.hits", i st.Service.hits);
    ("serve.misses", i st.Service.misses);
    ("serve.errors", i st.Service.errors);
    ("serve.shed", i st.Service.shed);
    ("serve.degraded", i st.Service.degraded);
    ("serve.queue_wait_ms", sum "tacos_serve_queue_wait_ms_sum");
    ("registry.synthesis_stage_ms", sum "tacos_serve_synthesis_ms_sum");
    ("export.stage_ms", sum "tacos_serve_export_ms_sum");
    ("registry.entries", i st.Service.entries);
    ("registry.disk_bytes", i st.Service.disk.Tacos.Registry.disk_bytes);
    ("registry.evicted", i st.Service.evicted);
    ("registry.quarantined", i st.Service.quarantined);
  ]

(* The change of the counters across a run; the registry sizes are levels. *)
let extras_since before svc =
  List.map
    (fun (k, v) ->
      match k with
      | "registry.entries" | "registry.disk_bytes" -> (k, v)
      | _ -> (k, v -. Option.value ~default:0. (List.assoc_opt k before)))
    (service_extras svc)

let service ~seed ?max_disk_bytes dir =
  Service.create
    ~config:
      {
        Service.default_config with
        registry_dir = Some dir;
        max_disk_bytes;
        seed;
        domains = 1;
        trials = 1;
      }
    ()

(* --- serve-hot ------------------------------------------------------------- *)

(* Sixteen keys, most popular first: fabrics of at most 64 NPUs, then the
   paper's 128-NPU heterogeneous All-Reduce, whose hit costs the most. As
   the least popular key it still takes 1.8 % of the requests, so p99 sits
   inside its hits and p90 inside the 64-NPU ones rather than on the step
   between them. *)
let hot_keys =
  [|
    ("mesh:4x4", "all-reduce"); ("ring:16", "all-gather"); ("dgx1", "all-reduce");
    ("torus:4x4", "all-gather"); ("mesh:8x8", "all-gather"); ("switch:32", "all-reduce");
    ("dragonfly", "all-gather"); ("hypercube:5", "reduce-scatter");
    ("torus:4x4x4", "all-reduce"); ("fc:8", "all-gather"); ("mesh:4x8", "reduce-scatter");
    ("dgx1", "all-gather"); ("ring:32", "all-reduce"); ("switch:16", "reduce-scatter");
    ("mesh:8x8", "all-reduce"); ("rfs:2x8x8", "all-reduce");
  |]

let hot_size = 16e6
let hot_rate = 500.

(* A request is due 10 ms before it counts as an SLO miss. *)
let slo_ms = 10.

type hot_req = Key of int | Bad | Ping | Stats | Metrics

let hot_kind = function
  | Key _ -> "hit"
  | Bad -> "malformed"
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"

let hot_class = function
  | Key k -> let t, p = hot_keys.(k) in t ^ "/" ^ p
  | r -> hot_kind r

let hot_line ~id k =
  let topology, pattern = hot_keys.(k) in
  line ~id ~op:"synthesize" (collective ~topology ~pattern ~size:hot_size)

(* Requests due at a constant [hot_rate], as a constant-throughput load
   generator sends them: with Poisson arrivals the queueing alone moved
   p90 and p99 by 4-11 % between seeds. 94 % repeat synthesize requests,
   Zipf 1.0 over the keys in their fixed popularity order, 3 % malformed
   lines, 2 % ping or stats, 1 % metrics. The rate and the mix are
   synthetic: no recorded request log of the service exists to derive
   them from, so they exercise the read path but stand for no measured
   traffic. *)
let hot_requests ~seed ~keys ~horizon =
  let rng = Rng.create seed in
  let weights = Array.init keys (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let zipf () =
    let u = Rng.float rng total in
    let rec go r acc =
      if r = keys - 1 || u < acc +. weights.(r) then r else go (r + 1) (acc +. weights.(r))
    in
    go 0 0.
  in
  let rec gen i t acc =
    let t = t +. (1. /. hot_rate) in
    let more = match horizon with Load.Ops n -> i < n | Load.Seconds s -> t < s in
    if not more then Array.of_list (List.rev acc)
    else
      let u = Rng.float rng 1. in
      let req, text =
        if u < 0.94 then
          let k = zipf () in
          (Key k, hot_line ~id:i k)
        else if u < 0.97 then (Bad, Rng.pick_array rng malformed)
        else if u < 0.99 then
          if Rng.bool rng then (Ping, line ~id:i ~op:"ping" []) else (Stats, line ~id:i ~op:"stats" [])
        else (Metrics, line ~id:i ~op:"metrics" [])
      in
      gen (i + 1) t ((t, req, text) :: acc)
  in
  gen 0 0. []

let check_hot warm (req, response) =
  let* doc = parse_response response in
  match req with
  | Key k ->
    let* t = collective_ok ~cached:true doc in
    same_time ~expected:warm.(k) t
  | Bad -> rejected doc
  | Ping ->
    let* () = status doc in
    if field_bool "pong" doc = Some true then Ok () else Error "no pong"
  | Stats -> status doc
  | Metrics -> (
    let* () = status doc in
    match field_str "metrics" doc with
    | Some text -> Result.map_error (fun e -> "exposition: " ^ e) (Expo.validate text)
    | None -> Error "no metrics text")

(* The generator sleeps until this long before a request is due, then
   spins. Waking from the sleep took up to a few tenths of a millisecond,
   which timing from the due time would have charged to the service: with
   a sleep to the due time, p90 spread 10 % across ten seeds and read 28 %
   above the service time's p90; with the spin, 8.6 % and 10 %. A generator
   that spins through the whole gap swung by up to 2x between runs,
   because the hits then depended on whatever else shared the core. *)
let spin_s = 5e-4

(* The open loop: each request is sent at its due time, or as soon as the
   one before it completes when that is later, and timed from its due
   time. The generator's own lateness is how long after both it actually
   started. Service times are CPU time, latencies wall time. *)
let hot_run ~svc ~warm requests limit =
  let before = service_extras svc in
  let requests =
    match limit with
    | Load.Ops n -> Array.sub requests 0 (min n (Array.length requests))
    | Load.Seconds s -> Array.of_list (List.filter (fun (t, _, _) -> t < s) (Array.to_list requests))
  in
  let count = Array.length requests in
  let t_start = Load.now () in
  let last_due = if count = 0 then t_start else let t, _, _ = requests.(count - 1) in t_start +. t in
  let responses = Array.make count "" in
  let ops = ref [] and late = ref [] and backlog = ref 0 and heap = ref 0. in
  let prev_end = ref t_start in
  Array.iteri
    (fun i (due, req, text) ->
      let due = t_start +. due in
      (* A machine-speed sample every 50 ms, in a gap that leaves it room
         before the request is due. *)
      if due -. Load.now () > 1.2e-3 then Calib.tick ~every:0.05 ();
      heap := Load.heap_checkpoint i !heap;
      let wait = due -. Load.now () -. spin_s in
      if wait > 0. then Unix.sleepf wait;
      while Load.now () < due do () done;
      let start = Load.now () and c0 = Load.cpu () in
      if i < count - 1 && start > last_due then incr backlog;
      late := (start -. Float.max due !prev_end) *. 1e3 :: !late;
      let kind = hot_kind req in
      responses.(i) <-
        Span.op ~kind (fun () ->
            Span.with_span ~kind "serve" (fun () -> Service.handle_line svc text));
      let stop = Load.now () and c1 = Load.cpu () in
      prev_end := stop;
      ops :=
        {
          Load.cls = hot_class req;
          start;
          service_ms = (c1 -. c0) *. 1e3;
          wall_ms = (stop -. start) *. 1e3;
          latency_ms = (stop -. due) *. 1e3;
        }
        :: !ops)
    requests;
  let window_s = !prev_end -. t_start in
  Calib.tick ();
  let failures =
    List.concat
      (List.mapi
         (fun i (_, req, _) ->
           match check_hot warm (req, responses.(i)) with
           | Ok () -> []
           | Error e -> [ Printf.sprintf "request %d (%s): %s" i (hot_kind req) e ])
         (Array.to_list requests))
  in
  let keys_seen =
    List.sort_uniq compare
      (List.filter_map (fun (_, req, _) -> match req with Key k -> Some k | _ -> None)
         (Array.to_list requests))
  in
  {
    Load.ops = List.rev !ops;
    failures;
    window_s;
    peak_heap_mb = (if count <= Load.heap_ops then Load.top_heap_mb () else !heap);
    open_loop = true;
    collective_us = List.map (fun k -> warm.(k) *. 1e6) keys_seen;
    late_ms = List.rev !late;
    backlog = !backlog;
    extras = extras_since before svc;
    order = Load.digest_order (Array.to_list (Array.map (fun (_, _, text) -> text) requests));
  }

(* Set-up: draw the requests, warm every key into a fresh registry
   directory with a first service, then start the timed service on that
   directory and let it read each key from disk once. The timed runs see
   the steady state, in which every hit is served from memory. The quick
   mode asks for the three most popular keys only. *)
let hot_setup ~seed ~quick ~horizon =
  let keys = if quick then 3 else Array.length hot_keys in
  let requests = hot_requests ~seed ~keys ~horizon in
  let dir = Load.scratch "serve-hot" in
  let ask svc ~cached k =
    let response = Service.handle_line svc (hot_line ~id:k k) in
    match Result.bind (parse_response response) (collective_ok ~cached) with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "warming %s: %s" (hot_class (Key k)) e)
  in
  let first = service ~seed dir in
  let warm = Array.init keys (ask first ~cached:false) in
  let svc = service ~seed dir in
  Array.iteri
    (fun k t ->
      if ask svc ~cached:true k <> t then
        failwith (Printf.sprintf "%s: the disk entry reports another time" (hot_class (Key k))))
    warm;
  { Load.run = hot_run ~svc ~warm requests; close = (fun () -> Load.rm_rf dir) }

let serve_hot =
  {
    Load.name = "serve-hot";
    setup = hot_setup;
    quick_ops = 80;
  }

(* --- serve-churn ----------------------------------------------------------- *)

type key = { topology : string; pattern : string; size : float }

type churn_req =
  | Cold of int  (** synthesize a new key, by its index *)
  | Repeat of int  (** synthesize an earlier key again *)
  | Export of int * [ `Json | `Csv ]
  | Tune of string * float  (** fabric/pattern, size *)
  | Sketched of string  (** fabric/pattern *)
  | Disconnect
  | Malformed

let variant topology pattern = topology ^ "/" ^ pattern

let churn_fabrics =
  [
    "mesh:4x4"; "mesh:8x8"; "torus:4x4x4"; "dgx1"; "dragonfly"; "switch:16"; "ring:16";
    "hypercube:5";
  ]

let churn_patterns = [ "all-gather"; "reduce-scatter"; "all-reduce" ]
let tune_candidates = [ 1; 2; 4; 8 ]
let churn_disk_cap = 4_000_000

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* Topologies parsed on the benchmark's side, to draw sketch links and to
   re-validate exported schedules. *)
let topologies = Hashtbl.create 16

let parsed desc =
  match Hashtbl.find_opt topologies desc with
  | Some t -> t
  | None ->
    let t = Result.get_ok (Parse.parse_topology desc) in
    Hashtbl.add topologies desc t;
    t

(* A deck deals its cards in a seeded order and reshuffles when it runs
   out, so every seed draws each variant equally often and the op list's
   cost does not depend on the seed. *)
type 'a deck = { cards : 'a array; mutable next : int }

let deck l = { cards = Array.of_list l; next = 0 }

let deal rng d =
  if d.next = 0 then Rng.shuffle_in_place rng d.cards;
  let c = d.cards.(d.next) in
  d.next <- (d.next + 1) mod Array.length d.cards;
  c

type slot = S_cold | S_export of [ `Json | `Csv ] | S_repeat | S_tune | S_sketch | S_error

(* The op list comes in blocks of twenty requests, each block in a seeded
   order: 9 cold synthesize requests for new keys (45 %), 3 exports of the
   latest key of an All-Gather or Reduce-Scatter variant, JSON:CSV 2:1
   (15 %), 3 repeat hits of an earlier key (15 %), 2 tunes (10 %), 2
   synthesize requests under a sketch that forbids one link (10 %) and 1
   expected error (5 %). Like serve-hot's, this mix is synthetic: it makes
   every write-side path run, and stands for no measured traffic.
   Requests are generated on demand, since each may name a key an earlier
   one created. *)
let block =
  List.concat
    [
      List.init 9 (fun _ -> S_cold); [ S_export `Json; S_export `Json; S_export `Csv ];
      List.init 3 (fun _ -> S_repeat); [ S_tune; S_tune; S_sketch; S_sketch; S_error ];
    ]

type churn_gen = {
  rng : Rng.t;
  reqs : (int, churn_req * string) Hashtbl.t;  (** by index *)
  keys : (int, key) Hashtbl.t;  (** by index *)
  latest : (string * string, int) Hashtbl.t;  (** the latest key of each fabric/pattern *)
  slots : slot deck;
  cold : (string * string) deck;
  exports : (string * string) deck;
  tunes : ((string * string) * float) deck;
  sketches : (string * string) deck;
  errors : bool deck;  (** true: a disconnecting fail_links request *)
}

let churn_gen seed =
  {
    rng = Rng.create seed;
    reqs = Hashtbl.create 1024;
    keys = Hashtbl.create 512;
    latest = Hashtbl.create 32;
    slots = deck block;
    cold = deck (product churn_fabrics churn_patterns);
    exports = deck (product churn_fabrics [ "all-gather"; "reduce-scatter" ]);
    tunes =
      deck
        (product
           (product [ "dgx1"; "mesh:4x4"; "ring:8" ] [ "all-gather"; "all-reduce" ])
           [ 1e6; 16e6; 64e6 ]);
    sketches = deck (product [ "mesh:4x4"; "torus:4x4"; "dgx1" ] churn_patterns);
    errors = deck [ true; false ];
  }

let key_line ~id ~op k extra =
  line ~id ~op (collective ~topology:k.topology ~pattern:k.pattern ~size:k.size @ extra)

let export_line ~id k fmt =
  key_line ~id ~op:"export" k
    [ ("format", Json.String (match fmt with `Json -> "json" | `Csv -> "csv")) ]

let tune_line ~id ~topology ~pattern ~size =
  line ~id ~op:"tune"
    (collective ~topology ~pattern ~size
    @ [ ("candidates", Json.Array (List.map num tune_candidates)) ])

let sketch_line ~id ~topology ~pattern ~size ~forbid =
  let sketch = Json.Object [ ("rules", Json.Array [ Json.Object [ ("forbid", num forbid) ] ]) ] in
  line ~id ~op:"synthesize" (collective ~topology ~pattern ~size @ [ ("sketch", sketch) ])

(* Killing any link of a unidirectional ring disconnects it. *)
let disconnect_line ~id ~link =
  line ~id ~op:"synthesize"
    (collective ~topology:"uniring:4" ~pattern:"all-gather" ~size:1e6
    @ [ ("fail_links", Json.Array [ num link ]) ])

(* A request's class is its kind and variant, so set_time_s sums medians
   over requests of one cost each. *)
let churn_class g req =
  let key i =
    let k = Hashtbl.find g.keys i in
    variant k.topology k.pattern
  in
  match req with
  | Cold i -> "cold " ^ key i
  | Repeat i -> "repeat " ^ key i
  | Export (i, `Json) -> "export-json " ^ key i
  | Export (i, `Csv) -> "export-csv " ^ key i
  | Tune (v, _) -> "tune " ^ v
  | Sketched v -> "sketch " ^ v
  | Disconnect -> "disconnect"
  | Malformed -> "malformed"

let add_key g k =
  let i = Hashtbl.length g.keys in
  Hashtbl.add g.keys i k;
  Hashtbl.replace g.latest (k.topology, k.pattern) i;
  i

let next_req g =
  let rng = g.rng in
  let id = Hashtbl.length g.reqs in
  let nkeys = Hashtbl.length g.keys in
  let cold () =
    let topology, pattern = deal rng g.cold in
    let k = { topology; pattern; size = 4e6 +. float_of_int nkeys } in
    (Cold (add_key g k), key_line ~id ~op:"synthesize" k [])
  in
  (* The first blocks may ask for a key before one of its variant exists. *)
  match deal rng g.slots with
  | S_cold -> cold ()
  | S_export fmt -> (
    match Hashtbl.find_opt g.latest (deal rng g.exports) with
    | None -> cold ()
    | Some i -> (Export (i, fmt), export_line ~id (Hashtbl.find g.keys i) fmt))
  | S_repeat when nkeys = 0 -> cold ()
  | S_repeat ->
    let i = Rng.int rng nkeys in
    (Repeat i, key_line ~id ~op:"synthesize" (Hashtbl.find g.keys i) [])
  | S_tune ->
    let (topology, pattern), size = deal rng g.tunes in
    (Tune (variant topology pattern, size), tune_line ~id ~topology ~pattern ~size)
  | S_sketch ->
    let topology, pattern = deal rng g.sketches in
    let forbid = Rng.int rng (Topology.num_links (parsed topology)) in
    ( Sketched (variant topology pattern),
      sketch_line ~id ~topology ~pattern ~size:(5e6 +. float_of_int id) ~forbid )
  | S_error ->
    if deal rng g.errors then (Disconnect, disconnect_line ~id ~link:(Rng.int rng 4))
    else (Malformed, Rng.pick_array rng malformed)

let churn_req g i =
  while Hashtbl.length g.reqs <= i do
    Hashtbl.add g.reqs (Hashtbl.length g.reqs) (next_req g)
  done;
  Hashtbl.find g.reqs i

(* Re-parse an export payload and re-validate it against the key's own
   topology and spec: the JSON document through [Schedule.of_json] and
   [Schedule.validate], the CSV through its row and cell counts. *)
let check_export k fmt doc =
  let* sends =
    match field_num "sends" doc with Some s -> Ok (int_of_float s) | None -> Error "no sends"
  in
  let topo = parsed k.topology in
  match fmt with
  | `Json ->
    let* payload = Option.to_result ~none:"no schedule" (Json.member "schedule" doc) in
    let* sched = Schedule.of_json (Json.encode payload) in
    let npus = Topology.num_npus topo in
    let* pattern = Parse.parse_pattern k.pattern npus in
    let spec = Spec.make ~buffer_size:k.size ~pattern ~npus () in
    if Schedule.num_sends sched <> sends then Error "exported send count differs"
    else Result.map_error (fun e -> "exported schedule: " ^ e) (Schedule.validate topo spec sched)
  | `Csv ->
    let* text = Option.to_result ~none:"no csv" (field_str "csv" doc) in
    let rows = List.filter (fun r -> r <> "") (String.split_on_char '\n' text) in
    let header = 7 in
    if List.length rows <> header + Topology.num_links topo then Error "csv row count"
    else
      let cells =
        List.fold_left ( + ) 0
          (List.filteri (fun i _ -> i >= header) rows
          |> List.map (fun r -> List.length (String.split_on_char ',' r) - 4))
      in
      if cells <> sends then Error (Printf.sprintf "csv carries %d sends, expected %d" cells sends)
      else Ok ()

let churn_run ~seed ~root g =
  let runs = ref 0 in
  fun limit ->
    incr runs;
    let dir = Filename.concat root (Printf.sprintf "run-%d" !runs) in
    let svc = service ~seed ~max_disk_bytes:churn_disk_cap dir in
    let times = Hashtbl.create 256 in
    (* The collective time of each fabric and pattern, from its first cold
       key: sizes differ by bytes, so every seed pins the same classes. *)
    let classes = Hashtbl.create 32 in
    let tuned = Hashtbl.create 32 in
    let known ki t =
      match Hashtbl.find_opt times ki with
      | Some expected -> same_time ~expected t
      | None -> Error "the key's cold request did not succeed"
    in
    let check req response =
      let* doc = parse_response response in
      match req with
      | Cold ki ->
        let* t = collective_ok ~cached:false doc in
        let k = Hashtbl.find g.keys ki in
        if not (Hashtbl.mem classes (k.topology, k.pattern)) then
          Hashtbl.add classes (k.topology, k.pattern) t;
        Ok (Hashtbl.replace times ki t)
      | Repeat ki ->
        let* t = collective_ok ~cached:true doc in
        known ki t
      | Export (ki, fmt) ->
        let* t = collective_ok ~cached:true doc in
        let* () = known ki t in
        check_export (Hashtbl.find g.keys ki) fmt doc
      | Tune (v, size) -> (
        (* Cached or not, a repeat of a tune must give its first answer. *)
        let* t = collective_ok doc in
        match Option.bind (Json.member "chunks_per_npu" doc) Json.to_int with
        | Some c when List.mem c tune_candidates -> (
          match Hashtbl.find_opt tuned (v, size) with
          | None -> Ok (Hashtbl.add tuned (v, size) (c, t))
          | Some (c0, t0) when c0 = c -> same_time ~expected:t0 t
          | Some (c0, _) -> Error (Printf.sprintf "tuned to %d chunks, first to %d" c c0))
        | _ -> Error "chunks_per_npu is not a candidate")
      | Sketched _ -> Result.map ignore (collective_ok ~cached:false doc)
      | Disconnect ->
        let* () = rejected doc in
        if Json.member "failure" doc = None then Error "error carries no failure" else Ok ()
      | Malformed -> rejected doc
    in
    let step i =
      let req, text = churn_req g i in
      let cls = churn_class g req in
      {
        Load.cls;
        call =
          (fun () ->
            Span.with_span ~kind:cls "serve" (fun () ->
                Service.handle_line svc text));
        check = check req;
      }
    in
    (* Whole blocks, so every run serves the same mix of request kinds. *)
    let ops, failures, window_s, peak_heap_mb =
      Load.closed_loop ~granule:(List.length block) ~limit ~available:max_int step
    in
    let extras = service_extras svc in
    Load.rm_rf dir;
    {
      Load.ops;
      failures;
      window_s;
      peak_heap_mb;
      open_loop = false;
      collective_us = Hashtbl.fold (fun _ t acc -> (t *. 1e6) :: acc) classes [];
      late_ms = [];
      backlog = 0;
      extras;
      order = Load.digest_order (List.init (List.length ops) (fun i -> snd (churn_req g i)));
    }

(* A cold key of every fabric and pattern, then one request of every other
   kind: the same requests for every seed. *)
let warm_gen seed =
  let g = churn_gen seed in
  let keys =
    List.map (fun (topology, pattern) -> { topology; pattern; size = 1e6 })
      (product churn_fabrics churn_patterns)
  in
  List.iter (fun k -> ignore (add_key g k)) keys;
  let n = List.length keys in
  let ag = Hashtbl.find g.keys 0 in
  List.iteri (Hashtbl.add g.reqs)
    (List.mapi (fun i k -> (Cold i, key_line ~id:i ~op:"synthesize" k [])) keys
    @ [
        (Export (0, `Json), export_line ~id:n ag `Json);
        (Export (0, `Csv), export_line ~id:(n + 1) ag `Csv);
        (Repeat 1, key_line ~id:(n + 2) ~op:"synthesize" (Hashtbl.find g.keys 1) []);
        (Tune ("ring:8/all-gather", 1e6), tune_line ~id:(n + 3) ~topology:"ring:8" ~pattern:"all-gather" ~size:1e6);
        ( Sketched "mesh:4x4/reduce-scatter",
          sketch_line ~id:(n + 4) ~topology:"mesh:4x4" ~pattern:"reduce-scatter" ~size:1e6
            ~forbid:0 );
        (Disconnect, disconnect_line ~id:(n + 5) ~link:0);
        (Malformed, malformed.(0));
      ]);
  g

(* The set-up runs the warm-up requests on a throwaway service, so the
   timed runs start with the code paths of every fabric and kind warm. *)
let churn_setup ~seed ~quick ~horizon:_ =
  let root = Load.scratch "serve-churn" in
  if not quick then begin
    let g = warm_gen seed in
    let warm = churn_run ~seed ~root:(Filename.concat root "warm") g (Load.Ops (Hashtbl.length g.reqs)) in
    match warm.Load.failures with [] -> () | f :: _ -> failwith ("warm-up: " ^ f)
  end;
  { Load.run = churn_run ~seed ~root (churn_gen seed); close = (fun () -> Load.rm_rf root) }

let serve_churn =
  {
    Load.name = "serve-churn";
    setup = churn_setup;
    quick_ops = 24;
  }
