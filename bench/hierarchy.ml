(* Hierarchical (process-group) synthesis vs flat TACOS: synthesis
   wall-clock and end-to-end simulated collective time on Torus 3D,
   2D-Switch and 3D-RFS fabrics from 64 to 1024 NPUs. The hierarchical
   rows decompose with `Plan.Auto` (inter phase on the bottleneck
   dimension) and dedupe isomorphic groups through the registry
   fingerprint, so a fabric of G identical groups costs one intra
   synthesis regardless of G. *)

open Tacos_topology
open Tacos_collective
open Exp_common
module Units = Tacos_util.Units
module Group = Tacos_groups.Group
module Plan = Tacos_groups.Plan

let torus dims = ("torus", Builders.torus dims)

let switch2d (s0, s1) =
  ( "2d-switch",
    Builders.two_level_switch ~bw:(Units.gbps 300., Units.gbps 25.) (s0, s1) )

let rfs dims =
  ( "3d-rfs",
    Builders.rfs3d ~bw:(Units.gbps 200., Units.gbps 100., Units.gbps 50.) dims )

let fabrics =
  let base = [ torus [| 4; 4; 4 |]; switch2d (16, 4); rfs (2, 4, 8) ] in
  let default =
    [ torus [| 8; 8; 4 |]; torus [| 8; 8; 8 |]; switch2d (32, 8); rfs (4, 8, 8) ]
  in
  let large = [ torus [| 16; 8; 8 |]; switch2d (32, 32); rfs (4, 8, 32) ] in
  match scale with
  | Small -> base
  | Default -> base @ default
  | Large -> base @ default @ large

let size = 64e6

(* Parallel column: the same hierarchical synthesis repeated at 1/2/4/8
   domains with a few randomized trials per sub-synthesis, so both axes of
   the shared pool (per-phase sub-synthesis fan-out and trial fan-out) are
   actually exercised. d=1 is the sequential reference; the others must
   compose bit-identical schedules. *)
let par_trials = 4
let par_domains = [ 1; 2; 4; 8 ]

let schedules_identical (a : Plan.t) (b : Plan.t) =
  let ra = a.Plan.result and rb = b.Plan.result in
  Schedule.sends ra.Synth.schedule = Schedule.sends rb.Synth.schedule
  && (match (ra.Synth.phases, rb.Synth.phases) with
     | Some (rs1, ag1), Some (rs2, ag2) ->
       Schedule.sends rs1 = Schedule.sends rs2
       && Schedule.sends ag1 = Schedule.sends ag2
     | None, None -> true
     | _ -> false)

let measure (family, topo) =
  let n = Topology.num_npus topo in
  let spec = Spec.make ~buffer_size:size ~pattern:Pattern.All_reduce ~npus:n () in
  let t0 = Unix.gettimeofday () in
  let flat = Synth.synthesize topo spec in
  let flat_wall = Unix.gettimeofday () -. t0 in
  let flat_time = simulate_schedule topo flat in
  let groups =
    match Plan.decompose topo Plan.Auto with
    | Ok gs -> gs
    | Error e -> failwith (Printf.sprintf "hierarchy: %s: %s" family e)
  in
  let t1 = Unix.gettimeofday () in
  let (plan : Plan.t), obs = with_obs (fun () -> Plan.synthesize topo spec ~groups) in
  let hier_wall = Unix.gettimeofday () -. t1 in
  let hier_time = simulate_schedule topo plan.Plan.result in
  let speedup = flat_wall /. hier_wall in
  let ratio = hier_time /. flat_time in
  (* 1/2/4/8-domain sweep of the same hierarchical synthesis. *)
  let par =
    List.map
      (fun d ->
        let t = Unix.gettimeofday () in
        let p = Plan.synthesize ~trials:par_trials ~domains:d topo spec ~groups in
        (d, Unix.gettimeofday () -. t, p))
      par_domains
  in
  let _, par_w1, par_p1 = List.hd par in
  let par_wall d =
    match List.find_opt (fun (d', _, _) -> d' = d) par with
    | Some (_, w, _) -> w
    | None -> nan
  in
  let par_speedup d = par_w1 /. par_wall d in
  let par_identical =
    List.for_all (fun (_, _, p) -> schedules_identical par_p1 p) par
  in
  record ~exp:"hierarchy"
    ([
       ("topology", Json.String family);
       ("npus", Json.Number (float_of_int n));
       ("flat_synthesis_seconds", Json.Number flat_wall);
       ("hier_synthesis_seconds", Json.Number hier_wall);
       ("synthesis_speedup", Json.Number speedup);
       ("flat_simulated_seconds", Json.Number flat_time);
       ("hier_simulated_seconds", Json.Number hier_time);
       ("time_ratio", Json.Number ratio);
       ("groups", Json.Number (float_of_int plan.Plan.groups));
       ("group_size", Json.Number (float_of_int plan.Plan.group_size));
       ("syntheses", Json.Number (float_of_int plan.Plan.syntheses));
       ("dedup_hits", Json.Number (float_of_int plan.Plan.dedup_hits));
       ("par_trials", Json.Number (float_of_int par_trials));
       ("par_identical", Json.Bool par_identical);
       ( "recommended_domains",
         Json.Number (float_of_int (Domain.recommended_domain_count ())) );
     ]
    @ List.map
        (fun (d, w, _) ->
          (Printf.sprintf "par_synthesis_seconds_d%d" d, Json.Number w))
        par
    @ List.filter_map
        (fun (d, _, _) ->
          if d = 1 then None
          else
            Some
              (Printf.sprintf "par_speedup_d%d" d, Json.Number (par_speedup d)))
        par
    @ [ ("obs", obs) ]);
  let main_row =
    [
      Printf.sprintf "%s %s" family (Topology.name topo);
      string_of_int n;
      Units.time_pp flat_wall;
      Units.time_pp hier_wall;
      Printf.sprintf "%.1fx" speedup;
      Units.time_pp flat_time;
      Units.time_pp hier_time;
      Printf.sprintf "%.2f" ratio;
      Printf.sprintf "%d/%d" plan.Plan.syntheses (plan.Plan.syntheses + plan.Plan.dedup_hits);
    ]
  in
  let par_row =
    [ Printf.sprintf "%s %s" family (Topology.name topo); string_of_int n ]
    @ List.map (fun (_, w, _) -> Units.time_pp w) par
    @ [
        Printf.sprintf "%.1fx" (par_speedup 4);
        Printf.sprintf "%.1fx" (par_speedup 8);
        (if par_identical then "yes" else "NO");
      ]
  in
  (main_row, par_row)

let run () =
  section "bench hierarchy: flat vs process-group synthesis (64 MB All-Reduce)";
  let rows = List.map measure fabrics in
  Tacos_util.Table.print
    ~header:
      [
        "fabric"; "NPUs"; "flat synth"; "hier synth"; "speedup"; "flat time";
        "hier time"; "ratio"; "synth/parts";
      ]
    (List.map fst rows);
  note "ratio = hierarchical / flat simulated collective time (lower is better)";
  section
    (Printf.sprintf
       "bench hierarchy: parallel synthesis sweep (trials=%d, shared domain pool)"
       par_trials);
  Tacos_util.Table.print
    ~header:
      [
        "fabric"; "NPUs"; "d=1"; "d=2"; "d=4"; "d=8"; "spd d4"; "spd d8";
        "identical";
      ]
    (List.map snd rows);
  note "identical = d>1 schedules bit-identical to d=1; host recommends %d domains"
    (Domain.recommended_domain_count ());
  flush_bench ~exp:"hierarchy"
