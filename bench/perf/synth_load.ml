(* The synthesis workloads. flat-paper is the paper's "synthesize, then
   evaluate" flow on the fabrics it evaluates; hier-scale is the
   hierarchical path of `tacos synthesize --groups auto` on 256 to 1024
   NPUs. Both are closed loops with one client, over passes of a config
   set in a seeded order. *)

module Parse = Tacos_collective.Parse
module Spec = Tacos_collective.Spec
module Topology = Tacos_topology.Topology
module Schedule = Tacos_collective.Schedule
module Synth = Tacos.Synthesizer
module Plan = Tacos_groups.Plan
module Program = Tacos_sim.Program
module Engine = Tacos_sim.Engine
module Rng = Tacos_util.Rng

type config = { topo : string; pattern : string; chunks : int }

let config_name c = Printf.sprintf "%s/%s/k%d" c.topo c.pattern c.chunks
let size = 64e6

let ( let* ) = Result.bind

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let parse c =
  let topo =
    Span.with_span "topology" (fun () -> Parse.parse_topology c.topo)
    |> ok_or_fail "topology"
  in
  let npus = Topology.num_npus topo in
  let pattern = Parse.parse_pattern c.pattern npus |> ok_or_fail "pattern" in
  (topo, Spec.make ~chunks_per_npu:c.chunks ~buffer_size:size ~pattern ~npus ())

let replayed_time (report : Engine.report) =
  match report.Engine.stranded with
  | [] when report.Engine.finish_time > 0. -> Ok report.Engine.finish_time
  | [] -> Error "replay finished at time 0"
  | l -> Error (Printf.sprintf "replay stranded %d transfers" (List.length l))

(* Enough passes that no run of a few minutes exhausts the op list. *)
let passes = 1000

(* The op list: one synthesis seed per config, drawn from the run seed,
   and a seeded order for every pass. *)
let op_list ~seed configs =
  let rng = Rng.create seed in
  let seeds = Array.map (fun _ -> Rng.int rng 1_000_000_000) configs in
  let order =
    Array.concat
      (List.init passes (fun _ ->
           let a = Array.init (Array.length configs) Fun.id in
           Rng.shuffle_in_place rng a;
           a))
  in
  (seeds, order)

(* What one op hands to its check: the plan is there on the hierarchical
   path. *)
type out = {
  result : Synth.result;
  verified : (unit, string) result;
  plan : Plan.t option;
  time : (float, string) result;  (** the collective time the op pins *)
}

type shape = { configs : config array; op : config -> seed:int -> out }

(* Check every op's output and pin each config's collective time: the
   same on every pass, since the config's synthesis seed is fixed. *)
let make_run ~shape ~seeds ~order limit =
  let pinned = Hashtbl.create 8 in
  let sends = ref 0 and phase_ms = ref 0. and syntheses = ref 0 and dedup = ref 0 in
  let pin ci time =
    let* t = time in
    match Hashtbl.find_opt pinned ci with
    | None -> Ok (Hashtbl.add pinned ci t)
    | Some t0 when t0 = t -> Ok ()
    | Some t0 ->
      Error (Printf.sprintf "collective time %.17g differs from the first pass's %.17g" t t0)
  in
  let check ci o =
    sends := !sends + Schedule.num_sends o.result.Synth.schedule;
    Option.iter
      (fun (p : Plan.t) ->
        List.iter
          (fun (i : Plan.phase_info) -> phase_ms := !phase_ms +. (i.Plan.wall_seconds *. 1e3))
          p.Plan.phase_infos;
        syntheses := !syntheses + p.Plan.syntheses;
        dedup := !dedup + p.Plan.dedup_hits)
      o.plan;
    let* () = Result.map_error (fun e -> "verify: " ^ e) o.verified in
    pin ci o.time
  in
  let step i =
    let ci = order.(i) in
    let c = shape.configs.(ci) in
    { Load.cls = config_name c; call = (fun () -> shape.op c ~seed:seeds.(ci)); check = check ci }
  in
  (* Each op starts from a collected heap, as a fresh `tacos synthesize`
     process would, so no op pays for the garbage of the one before. The
     heap is read before the first timed op: its high-water mark is then
     the set-ups', which synthesize every config at the warm-up seed. Over
     the window it creeps up with fragmentation, by more the more ops the
     machine's speed lets in. *)
  let ops, failures, window_s, peak_heap_mb =
    Load.closed_loop ~granule:(Array.length shape.configs) ~settle:Gc.full_major ~heap_after:0
      ~limit ~available:(Array.length order) step
  in
  {
    Load.ops;
    failures;
    window_s;
    peak_heap_mb;
    open_loop = false;
    collective_us = Hashtbl.fold (fun _ t acc -> (t *. 1e6) :: acc) pinned [];
    late_ms = [];
    backlog = 0;
    extras =
      [
        ("collective.sends", float_of_int !sends);
        ("groups.phase_synth_ms", !phase_ms);
        ("groups.syntheses", float_of_int !syntheses);
        ("groups.dedup_hits", float_of_int !dedup);
      ];
    order =
      Load.digest_order
        (List.mapi
           (fun i (o : Load.op) -> Printf.sprintf "%s seed %d" o.Load.cls seeds.(order.(i)))
           ops);
  }

(* The synthesis seed of every warm-up op, whatever the run seed: the heap
   a set-up reaches, and its time, then do not depend on which seeds the
   run drew. Across run seeds the peak moved by 11 % on hier-scale. *)
let warm_seed = 1

(* Set-up: draw the op list and run one untimed warm-up pass, checked. The
   quick mode keeps the first [quick] configs and skips the warm-up. *)
let workload ~name ~quick ~op configs =
  let setup ~seed ~quick:q ~horizon:_ =
    let shape = { configs = Array.of_list (List.filteri (fun i _ -> i < quick || not q) configs); op } in
    let seeds, order = op_list ~seed shape.configs in
    if not q then
      Array.iter
        (fun c ->
          match (op c ~seed:warm_seed).verified with
          | Ok () -> ()
          | Error e -> failwith (Printf.sprintf "warm-up %s: %s" (config_name c) e))
        shape.configs;
    { Load.run = make_run ~shape ~seeds ~order; close = ignore }
  in
  { Load.name; setup; quick_ops = quick }

(* --- flat-paper ----------------------------------------------------------- *)

let flat_op c ~seed =
  let topo, spec = parse c in
  let result =
    Span.with_span "synthesizer" (fun () ->
        Synth.synthesize ~seed ~trials:1 ~domains:1 topo spec)
  in
  let verified = Span.with_span "collective" (fun () -> Synth.verify topo result) in
  let report =
    Span.with_span "simulator" (fun () ->
        Engine.run topo
          (Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule))
  in
  { result; verified; plan = None; time = replayed_time report }

let flat_paper =
  workload ~name:"flat-paper" ~quick:3 ~op:flat_op
    [
      { topo = "dgx1"; pattern = "all-reduce"; chunks = 16 };
      { topo = "dragonfly"; pattern = "all-reduce"; chunks = 4 };
      { topo = "switch:64"; pattern = "all-reduce"; chunks = 1 };
      { topo = "mesh:8x8"; pattern = "all-gather"; chunks = 4 };
      { topo = "torus:4x4x4"; pattern = "all-reduce"; chunks = 4 };
      { topo = "rfs:2x8x8"; pattern = "all-reduce"; chunks = 1 };
      { topo = "mesh:16x16"; pattern = "all-gather"; chunks = 1 };
    ]

(* --- hier-scale ----------------------------------------------------------- *)

(* The pinned collective time is the composed schedule's makespan: replaying
   the 0.5M- and 1M-send schedules of the largest configs would take 13 s
   and 1.2 GB of heap per run. *)
let hier_op c ~seed =
  let topo, spec = parse c in
  let groups =
    Span.with_span ~kind:"decompose" "groups" (fun () -> Plan.decompose topo Plan.Auto)
    |> ok_or_fail "decompose"
  in
  let plan =
    Span.with_span ~kind:"synthesize" "groups" (fun () ->
        Plan.synthesize ~seed ~trials:1 ~domains:1 topo spec ~groups)
  in
  let verified =
    Span.with_span "collective" (fun () -> Synth.verify topo plan.Plan.result)
  in
  let result = plan.Plan.result in
  { result; verified; plan = Some plan; time = Ok result.Synth.collective_time }

let hier_scale =
  workload ~name:"hier-scale" ~quick:2 ~op:hier_op
    [
      { topo = "rfs:4x8x8"; pattern = "reduce-scatter"; chunks = 1 };
      { topo = "torus:8x8x4"; pattern = "all-gather"; chunks = 1 };
      { topo = "rfs:4x8x8"; pattern = "all-reduce"; chunks = 1 };
      { topo = "torus:8x8x4"; pattern = "all-reduce"; chunks = 1 };
      { topo = "torus:16x16"; pattern = "all-reduce"; chunks = 1 };
      { topo = "rfs:8x8x8"; pattern = "all-reduce"; chunks = 1 };
      { topo = "mesh:32x32"; pattern = "all-gather"; chunks = 1 };
    ]
