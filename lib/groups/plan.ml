(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
module Obs = Tacos_obs.Obs
module Synthesizer = Tacos.Synthesizer
module Registry = Tacos.Registry
module Pool = Tacos_util.Pool

type grouping = Dim of int | Auto | Partition of int array list

let grouping_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Ok Auto
  | t -> (
    match int_of_string_opt t with
    | Some d when d >= 0 -> Ok (Dim d)
    | _ -> Error (Printf.sprintf "bad grouping %S: expected \"auto\" or a dimension index" s))

let decompose topo grouping =
  let derive () =
    match grouping with
    | Dim d -> Group.of_dim topo ~dim:d
    | Auto -> (
      match Group.auto_dim topo with
      | Some d -> Group.of_dim topo ~dim:d
      | None ->
        invalid_arg
          "no usable hierarchy dimension (topology records none, or every split is degenerate)")
    | Partition parts -> Group.of_partition topo parts
  in
  match derive () with
  | groups -> (
    match Group.validate topo groups with
    | Ok () -> Ok groups
    | Error e -> Error e)
  | exception Invalid_argument e -> Error e

type phase_info = {
  phase : string;
  parts : int;
  syntheses : int;
  dedup_hits : int;
  wall_seconds : float;
  makespan : float;
}

type t = {
  groups : int;
  group_size : int;
  result : Synthesizer.result;
  phase_infos : phase_info list;
  syntheses : int;
  dedup_hits : int;
}

(* --- obs --------------------------------------------------------------- *)

let c_groups = Obs.counter "groups.groups"
let c_phases = Obs.counter "groups.phases"
let c_syntheses = Obs.counter "groups.syntheses"
let c_dedup = Obs.counter "groups.dedup_hits"
let t_phase_synth = Obs.timer "groups.phase_synth_seconds"
let t_validate = Obs.timer "groups.validate_seconds"
let t_assemble = Obs.timer "groups.assemble_seconds"

(* --- deduped sub-synthesis --------------------------------------------- *)

(* Sub-synthesis cache key: full-width topology fingerprint plus the
   registry's spec key — one shared builder ([Registry.spec_key]), so the
   two cannot drift apart again. *)
let sub_key (group : Group.t) (spec : Spec.t) =
  Registry.fingerprint group.Group.topo ^ "|" ^ Registry.spec_key spec

type ctx = {
  cache : (string, Synthesizer.result) Hashtbl.t;
  pool : Pool.t option;  (** [Some] iff [domains > 1] *)
  domains : int;
  seed : int;
  trials : int;
}

let run_synth ctx (group : Group.t) spec =
  Obs.time t_phase_synth (fun () ->
      Synthesizer.synthesize ~seed:ctx.seed ~trials:ctx.trials
        ~domains:ctx.domains group.Group.topo spec)

(* A phase's sub-syntheses, deduped in one pass over its elements: the
   first element whose key is not cached owns that key's synthesis and
   every later one is a dedup hit, so which element owns a key — and with
   it every phase_info row — depends on element order alone. Without a
   pool an owner synthesizes on the spot; with one, the owners fan out
   through one [Pool.map] and are cached once it returns. *)
let synth_parts ctx elements =
  let owned = Hashtbl.create 8 and owners = ref [] in
  let keyed =
    List.map
      (fun (group, spec, chunks) ->
        let k = sub_key group spec in
        let owner = not (Hashtbl.mem ctx.cache k || Hashtbl.mem owned k) in
        if owner then begin
          match ctx.pool with
          | None -> Hashtbl.add ctx.cache k (run_synth ctx group spec)
          | Some _ ->
            Hashtbl.add owned k ();
            owners := (k, group, spec) :: !owners
        end;
        (group, chunks, k, if owner then `Miss else `Hit))
      elements
  in
  Option.iter
    (fun pool ->
      let owners = Array.of_list (List.rev !owners) in
      let results =
        Pool.map pool
          (fun i ->
            let _, group, spec = owners.(i) in
            run_synth ctx group spec)
          (Array.length owners)
      in
      Array.iteri (fun i (k, _, _) -> Hashtbl.add ctx.cache k results.(i)) owners)
    ctx.pool;
  List.map
    (fun (group, chunks, k, outcome) ->
      Obs.incr (match outcome with `Miss -> c_syntheses | `Hit -> c_dedup);
      (group, chunks, Hashtbl.find ctx.cache k, outcome))
    keyed

(* A phase's info row: its parts' synthesis outcomes and wall clock, and
   its duration from [offset] to [finish]. *)
let account ~phase ~offset ~finish parts =
  let syntheses, dedup_hits, wall =
    List.fold_left
      (fun (s, d, w) (_, _, (r : Synthesizer.result), outcome) ->
        match outcome with
        | `Miss -> (s + 1, d, w +. r.stats.Synthesizer.wall_seconds)
        | `Hit -> (s, d + 1, w))
      (0, 0, 0.) parts
  in
  Obs.incr c_phases;
  {
    phase;
    parts = List.length parts;
    syntheses;
    dedup_hits;
    wall_seconds = wall;
    makespan = finish -. offset;
  }

(* One phase: synthesize (deduped) each part and account. Returns the
   parts for [Compose.assemble], each at [offset], the phase's completion
   time, and its info row. *)
let run_phase ctx ~phase ~offset elements =
  let parts = synth_parts ctx elements in
  let finish =
    List.fold_left
      (fun acc (_, _, (r : Synthesizer.result), _) ->
        Float.max acc (offset +. r.schedule.Schedule.makespan))
      offset parts
  in
  let composed =
    List.map
      (fun (group, chunks, (r : Synthesizer.result), _) ->
        { Compose.group; chunks; schedule = r.schedule; offset })
      parts
  in
  (composed, finish, account ~phase ~offset ~finish parts)

(* --- decomposition ----------------------------------------------------- *)

let synthesize ?(seed = 42) ?(trials = 1) ?(domains = 1) topo (spec : Spec.t) ~groups =
  if domains <= 0 then invalid_arg "Plan.synthesize: domains must be positive";
  (match Obs.time t_validate (fun () -> Group.validate topo groups) with
  | Ok () -> ()
  | Error e -> invalid_arg ("Plan.synthesize: invalid partition: " ^ e));
  let n = Topology.num_npus topo in
  if spec.Spec.npus <> n then
    invalid_arg
      (Printf.sprintf "Plan.synthesize: spec is for %d NPUs, topology has %d"
         spec.Spec.npus n);
  let gs = Array.of_list groups in
  let g = Array.length gs in
  let m = Array.length gs.(0).Group.members in
  let slices = Group.slices topo groups in
  let k = spec.Spec.chunks_per_npu in
  let b = spec.Spec.buffer_size in
  Obs.add c_groups g;
  (* Phases stay sequential — only the sub-syntheses *within* a phase fan
     out — so cross-phase cache hits land exactly where the sequential path
     puts them. *)
  let pool = if domains = 1 then None else Some (Pool.global ~size:domains ()) in
  let ctx = { cache = Hashtbl.create 16; pool; domains; seed; trials } in

  (* Chunk maps, local id → global id. Owner-based global chunk ids are
     [owner * k + slot]. A group's local rank [lo] holds — after the inter
     phase, equivalently holds initially mapped through its slice — the
     chunks owned by the rank-[lo] member of every group, which is what the
     intra map enumerates; note it depends only on the rank, not on which
     group is being composed, so one table (and one synthesis) serves all
     isomorphic groups. *)
  let intra_map lc =
    let lo = lc / (g * k) and j = lc mod (g * k) in
    let g' = j / k and s = j mod k in
    (gs.(g').Group.members.(lo) * k) + s
  in
  let slice_map (slice : Group.t) lc =
    let lo = lc / k and s = lc mod k in
    (slice.Group.members.(lo) * k) + s
  in

  (* Sub-specs. Intra phases see every group's share of the vector (buffer
     [b], [g * k] chunks per rank); inter phases see one group's share
     ([b / m], [k] chunks per rank); both give the global chunk size
     [b / (n * k)]. Rooted patterns keep the whole buffer and [k] chunks. *)
  let intra_spec pattern =
    Spec.make ~chunks_per_npu:(g * k) ~buffer_size:b ~pattern ~npus:m ()
  in
  let inter_spec pattern =
    Spec.make ~chunks_per_npu:k
      ~buffer_size:(b /. float_of_int m)
      ~pattern ~npus:g ()
  in
  let rooted_spec pattern npus =
    Spec.make ~chunks_per_npu:k ~buffer_size:b ~pattern ~npus ()
  in
  (* A phase's elements are (group, sub-spec, chunk table), each table
     built once per phase from its map. *)
  let table spec map = Array.init (Spec.num_chunks spec) map in
  let intra_elems pattern =
    let spec = intra_spec pattern in
    let chunks = table spec intra_map in
    List.map (fun gr -> (gr, spec, chunks)) groups
  in
  let inter_elems pattern =
    let spec = inter_spec pattern in
    List.map (fun sl -> (sl, spec, table spec (slice_map sl))) slices
  in
  (* Local coordinates of a root NPU: its group index and local rank. *)
  let locate root =
    let found = ref None in
    Array.iteri
      (fun gi (grp : Group.t) ->
        Array.iteri (fun ri v -> if v = root then found := Some (gi, ri)) grp.members)
      gs;
    match !found with
    | Some loc -> loc
    | None -> invalid_arg (Printf.sprintf "Plan.synthesize: root %d not in any group" root)
  in

  let finish schedule phases infos =
    let wall = List.fold_left (fun acc (i : phase_info) -> acc +. i.wall_seconds) 0. infos in
    let syntheses = List.fold_left (fun acc (i : phase_info) -> acc + i.syntheses) 0 infos in
    let dedup_hits = List.fold_left (fun acc (i : phase_info) -> acc + i.dedup_hits) 0 infos in
    {
      groups = g;
      group_size = m;
      result =
        {
          Synthesizer.spec;
          schedule;
          collective_time = schedule.Schedule.makespan;
          phases;
          stats =
            {
              Synthesizer.wall_seconds = wall;
              rounds = 0;
              matches = Schedule.num_sends schedule;
              trials;
            };
        };
      phase_infos = infos;
      syntheses;
      dedup_hits;
    }
  in

  (* The four two-phase patterns: the second phase starts when the first
     completes, and the composed schedule merges both phases' parts. *)
  let two_phases (phase1, elements1) (phase2, elements2) =
    let s1, t1, i1 = run_phase ctx ~phase:phase1 ~offset:0. elements1 in
    let s2, _, i2 = run_phase ctx ~phase:phase2 ~offset:t1 elements2 in
    finish (Obs.time t_assemble (fun () -> Compose.assemble (s1 @ s2))) None [ i1; i2 ]
  in
  let group_elems spec =
    let chunks = table spec Fun.id in
    List.map (fun gr -> (gr, spec, chunks)) groups
  in
  let slice_elems r0 spec = [ (List.nth slices r0, spec, table spec Fun.id) ] in

  match spec.Spec.pattern with
  | Pattern.All_gather ->
    two_phases
      ("inter-all-gather", inter_elems Pattern.All_gather)
      ("intra-all-gather", intra_elems Pattern.All_gather)
  | Pattern.Reduce_scatter ->
    two_phases
      ("intra-reduce-scatter", intra_elems Pattern.Reduce_scatter)
      ("inter-reduce-scatter", inter_elems Pattern.Reduce_scatter)
  | Pattern.Broadcast root ->
    let g0, r0 = locate root in
    two_phases
      ("inter-broadcast", slice_elems r0 (rooted_spec (Pattern.Broadcast g0) g))
      ("intra-broadcast", group_elems (rooted_spec (Pattern.Broadcast r0) m))
  | Pattern.Reduce root ->
    let g0, r0 = locate root in
    two_phases
      ("intra-reduce", group_elems (rooted_spec (Pattern.Reduce r0) m))
      ("inter-reduce", slice_elems r0 (rooted_spec (Pattern.Reduce g0) g))
  | Pattern.All_reduce ->
    let s1, t1, i1 =
      run_phase ctx ~phase:"intra-reduce-scatter" ~offset:0.
        (intra_elems Pattern.Reduce_scatter)
    in
    (* Inter All-Reduce per slice, each carrying its own (RS, AG) split.
       The slice All-Gathers are barrier-aligned at the slowest slice
       Reduce-Scatter so the composed schedule has one global RS|AG
       boundary for validate_all_reduce; delaying an AG phase is always
       causally safe. *)
    let parts = synth_parts ctx (inter_elems Pattern.All_reduce) in
    let phases_of (_, _, (r : Synthesizer.result), _) =
      (* the synthesizer always splits All-Reduce *)
      Option.get r.Synthesizer.phases
    in
    let rs_end =
      t1
      +. List.fold_left
           (fun acc p -> Float.max acc (fst (phases_of p)).Schedule.makespan)
           0. parts
    in
    let rs_parts =
      List.map
        (fun ((group, chunks, _, _) as p) ->
          { Compose.group; chunks; schedule = fst (phases_of p); offset = t1 })
        parts
    in
    let t2 = ref rs_end in
    let ag_parts =
      List.map
        (fun ((group, chunks, _, _) as p) ->
          let rs, ag = phases_of p in
          let offset = rs_end -. rs.Schedule.makespan in
          t2 := Float.max !t2 (offset +. ag.Schedule.makespan);
          { Compose.group; chunks; schedule = ag; offset })
        parts
    in
    let i2 = account ~phase:"inter-all-reduce" ~offset:t1 ~finish:!t2 parts in
    let s3, _, i3 =
      run_phase ctx ~phase:"intra-all-gather" ~offset:!t2 (intra_elems Pattern.All_gather)
    in
    (* Each half is a merge of its parts, and the composed schedule the
       union of the two halves. *)
    let rs_half, ag_half, composed =
      Obs.time t_assemble (fun () ->
          let rs_half = Compose.assemble (s1 @ rs_parts) in
          let ag_half = Compose.assemble (ag_parts @ s3) in
          (rs_half, ag_half, Schedule.union rs_half ag_half))
    in
    finish composed (Some (rs_half, ag_half)) [ i1; i2; i3 ]
  | (Pattern.All_to_all | Pattern.Gather _ | Pattern.Scatter _) as p ->
    raise
      (Synthesizer.Unsupported
         (Printf.sprintf "Plan.synthesize: no group decomposition for %s" (Pattern.name p)))
