(* Lightweight observability substrate: counters, running-max gauges,
   log-scale histograms and span timers behind one global registry that
   is OFF by default. Structured events go to [Trace].

   Design constraints, in order:
   - near-zero cost when disabled: every record operation is one atomic
     flag load and a branch, so the synthesizer/simulator hot paths can
     stay permanently instrumented;
   - domain-safe: synthesis trials run on multiple domains sharing the
     registry, so all metric state is Atomic (CAS loops for the float
     aggregates) and the registry is mutex-protected;
   - machine-readable: [snapshot] serializes to Tacos_util.Json, which is
     what the CLI `profile` subcommand and the BENCH_*.json benchmark rows
     embed.

   Metrics are interned by name: [counter "x"] returns the same counter
   everywhere, so modules can intern at load time and tests/CLI can look
   the value up by name. [reset] zeroes values but keeps identities. *)

module Json = Tacos_util.Json
module Clock = Tacos_util.Clock

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* --- recording context ---------------------------------------------------- *)

(* Synthesis trial index, carried in domain-local storage so trials running
   concurrently on several domains tag their own records: [Trace.emit]
   stamps events with the emitting domain id plus this index, keeping the
   interleaved shared buffer attributable. *)

let trial_key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_trial () = Domain.DLS.get trial_key

let with_trial i f =
  let saved = Domain.DLS.get trial_key in
  Domain.DLS.set trial_key (Some i);
  Fun.protect ~finally:(fun () -> Domain.DLS.set trial_key saved) f

(* --- atomic float helpers ------------------------------------------------ *)

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let rec atomic_max_float a x =
  let old = Atomic.get a in
  if x > old && not (Atomic.compare_and_set a old x) then atomic_max_float a x

let rec atomic_min_float a x =
  let old = Atomic.get a in
  if x < old && not (Atomic.compare_and_set a old x) then atomic_min_float a x

(* --- metric types -------------------------------------------------------- *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_max : float Atomic.t }

(* Exact count/sum/min/max plus power-of-two magnitude buckets: bucket 0
   collects non-positive observations, bucket [i >= 1] the values whose
   binary exponent is [i + min_exp - 1]. 64 buckets span ~1e-9 .. ~8e9. *)
let num_buckets = 64
let min_exp = -30 (* 2^-30 ~ 1e-9: finest magnitude distinguished *)

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;
}

type timer = { t_hist : histogram }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Timer of timer

(* --- registry ------------------------------------------------------------ *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let intern name make project kind =
  with_lock registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match project m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.%s: %S is already registered as another kind" kind
               name))
      | None ->
        let v = make () in
        v)

let fresh_histogram name =
  {
    h_name = name;
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.;
    h_min = Atomic.make infinity;
    h_max = Atomic.make neg_infinity;
    h_buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
  }

let counter name =
  intern name
    (fun () ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      Hashtbl.replace registry name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)
    "counter"

let gauge name =
  intern name
    (fun () ->
      let g = { g_name = name; g_max = Atomic.make neg_infinity } in
      Hashtbl.replace registry name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let histogram name =
  intern name
    (fun () ->
      let h = fresh_histogram name in
      Hashtbl.replace registry name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)
    "histogram"

let timer name =
  intern name
    (fun () ->
      let t = { t_hist = fresh_histogram name } in
      Hashtbl.replace registry name (Timer t);
      t)
    (function Timer t -> Some t | _ -> None)
    "timer"

(* --- recording ----------------------------------------------------------- *)

let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c_value n)
let incr c = add c 1
let value c = Atomic.get c.c_value

let observe_max g v = if enabled () then atomic_max_float g.g_max v

let gauge_value g =
  let v = Atomic.get g.g_max in
  if v = neg_infinity then 0. else v

let bucket_of v =
  if v <= 0. then 0
  else begin
    let _, e = Float.frexp v in
    max 1 (min (num_buckets - 1) (e - min_exp))
  end

let observe_unchecked h v =
  ignore (Atomic.fetch_and_add h.h_count 1);
  atomic_add_float h.h_sum v;
  atomic_min_float h.h_min v;
  atomic_max_float h.h_max v;
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)

let observe h v = if enabled () then observe_unchecked h v

let time tm f =
  if not (enabled ()) then f ()
  else begin
    let s = Clock.start () in
    Fun.protect ~finally:(fun () -> observe_unchecked tm.t_hist (Clock.elapsed s)) f
  end

(* --- reset / snapshot ---------------------------------------------------- *)

let reset_metric = function
  | Counter c -> Atomic.set c.c_value 0
  | Gauge g -> Atomic.set g.g_max neg_infinity
  | Histogram h | Timer { t_hist = h } ->
    Atomic.set h.h_count 0;
    Atomic.set h.h_sum 0.;
    Atomic.set h.h_min infinity;
    Atomic.set h.h_max neg_infinity;
    Array.iter (fun b -> Atomic.set b 0) h.h_buckets

let reset () =
  with_lock registry_mutex (fun () -> Hashtbl.iter (fun _ m -> reset_metric m) registry)

let histogram_json h =
  let count = Atomic.get h.h_count in
  let sum = Atomic.get h.h_sum in
  let buckets =
    Array.to_list h.h_buckets
    |> List.mapi (fun i b -> (i, Atomic.get b))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) ->
           let le =
             if i = 0 then 0. else Float.ldexp 1. (i + min_exp)
           in
           Json.Object
             [ ("le", Json.Number le); ("count", Json.Number (float_of_int c)) ])
  in
  Json.Object
    [
      ("count", Json.Number (float_of_int count));
      ("sum", Json.Number sum);
      ("mean", Json.Number (if count = 0 then 0. else sum /. float_of_int count));
      ("min", Json.Number (if count = 0 then 0. else Atomic.get h.h_min));
      ("max", Json.Number (if count = 0 then 0. else Atomic.get h.h_max));
      ("buckets", Json.Array buckets);
    ]

let snapshot () =
  let counters = ref [] and gauges = ref [] and hists = ref [] and timers = ref [] in
  with_lock registry_mutex (fun () ->
      Hashtbl.iter
        (fun name m ->
          match m with
          | Counter c ->
            counters := (name, Json.Number (float_of_int (value c))) :: !counters
          | Gauge g -> gauges := (name, Json.Number (gauge_value g)) :: !gauges
          | Histogram h -> hists := (name, histogram_json h) :: !hists
          | Timer t -> timers := (name, histogram_json t.t_hist) :: !timers)
        registry);
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  Json.Object
    [
      ("counters", Json.Object (sorted !counters));
      ("gauges", Json.Object (sorted !gauges));
      ("histograms", Json.Object (sorted !hists));
      ("timers", Json.Object (sorted !timers));
    ]
