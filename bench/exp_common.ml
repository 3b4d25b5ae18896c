(* Shared plumbing for the experiment harness: every table and figure of the
   paper's evaluation section is regenerated by one module in this
   directory, printing rows in the same shape the paper reports. *)

open Tacos_topology
open Tacos_collective
module Table = Tacos_util.Table
module Units = Tacos_util.Units
module Json = Tacos_util.Json
module Obs = Tacos_obs.Obs
module Algo = Tacos_baselines.Algo
module Synth = Tacos.Synthesizer

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

(* Scale knob: TACOS_BENCH_SCALE=small trims the slow sweeps (CI), =large
   extends them (the paper's full ranges where feasible), and unset or
   =default runs the default sweeps. Any other value is refused, so a typo
   cannot silently run the default sweeps. *)
type scale = Small | Default | Large

let scale =
  match Sys.getenv_opt "TACOS_BENCH_SCALE" with
  | None | Some "default" -> Default
  | Some "small" -> Small
  | Some "large" -> Large
  | Some other ->
    Printf.eprintf "TACOS_BENCH_SCALE must be default, small or large (got %S)\n" other;
    exit 1

(* --- machine-readable benchmark output --------------------------------- *)

(* Each instrumented experiment records JSON rows (usually with an obs
   snapshot attached) and flushes them to BENCH_<exp>.json in the working
   directory — the perf trajectory later PRs are judged against. *)

let bench_rows : (string, Json.t list ref) Hashtbl.t = Hashtbl.create 8

let record ~exp fields =
  let rows =
    match Hashtbl.find_opt bench_rows exp with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add bench_rows exp r;
      r
  in
  rows := Json.Object fields :: !rows

let flush_bench ~exp =
  match Hashtbl.find_opt bench_rows exp with
  | None | Some { contents = [] } -> ()
  | Some rows ->
    let file = Printf.sprintf "BENCH_%s.json" exp in
    let doc =
      Json.Object
        [ ("experiment", Json.String exp); ("rows", Json.Array (List.rev !rows)) ]
    in
    let oc = open_out file in
    output_string oc (Json.encode doc);
    output_char oc '\n';
    close_out oc;
    rows := [];
    note "wrote %s" file

(* Run [f] with the obs registry enabled and zeroed, returning its result
   together with a JSON snapshot of everything it recorded. The previous
   enabled/disabled state is restored afterwards. *)
let with_obs f =
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let finish () = if not was then Obs.disable () in
  match f () with
  | v ->
    let snap = Obs.snapshot () in
    finish ();
    (v, snap)
  | exception e ->
    finish ();
    raise e

let spec ?(chunks_per_npu = 1) ~size topo pattern =
  Spec.make ~chunks_per_npu ~buffer_size:size ~pattern
    ~npus:(Topology.num_npus topo) ()

let tacos_result ?(chunks_per_npu = 4) ?(seed = 42) ?(trials = 1) topo ~size pattern =
  Synth.synthesize ~seed ~trials topo (spec ~chunks_per_npu ~size topo pattern)

(* Like the paper, synthesized algorithms are *evaluated* under the same
   congestion-aware simulator as the baselines: the schedule's dependency
   structure is replayed, so bandwidth-bound collectives reproduce the
   makespan while latency-bound ones pipeline the α terms the TEN spans
   serialize. *)
let simulate_schedule = Tacos.Tuner.simulated_time

let tacos_time ?(chunks_per_npu = 4) ?(seed = 42) ?(trials = 1) topo ~size pattern =
  simulate_schedule topo (tacos_result ~chunks_per_npu ~seed ~trials topo ~size pattern)

let baseline_time algo topo ~size pattern =
  Algo.collective_time algo topo (spec ~size topo pattern)

let bandwidth ~size time = size /. time

(* Bandwidth rows normalized by the smallest value, the way Figs. 2/15/16/17
   are presented. *)
let normalized_row values =
  let smallest = List.fold_left Float.min infinity values in
  List.map (fun v -> Printf.sprintf "%.2f" (v /. smallest)) values

let pct x = Table.cell_percent x

(* Aggregate per-(src,dst) traffic matrix for the heat maps of Fig. 1:
   parallel links between the same pair are summed; [None] marks absent
   links. *)
let traffic_matrix topo link_bytes =
  let n = Topology.num_npus topo in
  let m = Array.make_matrix n n None in
  List.iter
    (fun (e : Topology.edge) ->
      let existing = match m.(e.src).(e.dst) with Some v -> v | None -> 0. in
      m.(e.src).(e.dst) <- Some (existing +. link_bytes.(e.id)))
    (Topology.edges topo);
  m

(* ASCII sparkline for utilization timelines (Figs. 16b, 18). *)
let sparkline values =
  let ramp = "_.-=*#@" in
  String.concat ""
    (List.map
       (fun v ->
         let v = Float.max 0. (Float.min 1. v) in
         let idx = int_of_float (v *. float_of_int (String.length ramp - 1) +. 0.5) in
         String.make 1 ramp.[idx])
       values)
