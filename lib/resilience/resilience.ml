(* Namespaces of the substrate libraries. *)
open Tacos_collective
module Topology = Tacos_topology.Topology
module Ten = Tacos_ten.Ten
module Synth = Tacos.Synthesizer
module Algo = Tacos_baselines.Algo
module Engine = Tacos_sim.Engine
module Program = Tacos_sim.Program
module Rng = Tacos_util.Rng
module Json = Tacos_util.Json
module Deadline = Tacos_util.Deadline
module Obs = Tacos_obs.Obs

(* Fallback-ladder telemetry: a fleet running degraded syntheses watches
   these to see how often it is living on fallbacks ("tacos profile" /
   BENCH rows surface them). *)
let obs_ok = Obs.counter "resilience.synth_ok"
let obs_retries = Obs.counter "resilience.synth_retries"
let obs_baseline = Obs.counter "resilience.fallback_baseline"
let obs_deadline = Obs.counter "resilience.deadline_exceeded"
let obs_failures = Obs.counter "resilience.failures"
let obs_disconnected = Obs.counter "resilience.disconnected_inputs"

type plan =
  | Synthesized of Synth.result
  | Baseline of { algo : Algo.t; report : Engine.report }

type outcome = {
  plan : plan;
  simulated_time : float;
  retries : int;
  rungs : string list;
  wall_seconds : float;
}

type failure = {
  stage : string;
  message : string;
  connectivity : Fault.connectivity;
  disconnecting : Fault.t option;
  deadline_slack_ms : float option;
}

let pp_failure ppf f =
  Format.fprintf ppf "%s: %s (fabric %a%t%t)" f.stage f.message Fault.pp_connectivity
    f.connectivity
    (fun ppf ->
      match f.disconnecting with
      | Some fault -> Format.fprintf ppf "; disconnected by %a" Fault.pp fault
      | None -> ())
    (fun ppf ->
      match f.deadline_slack_ms with
      | Some slack -> Format.fprintf ppf "; deadline slack %.1fms" slack
      | None -> ())

let failure_to_json f =
  Json.Object
    ([
       ("stage", Json.String f.stage);
       ("message", Json.String f.message);
       ( "connectivity",
         Json.String (Format.asprintf "%a" Fault.pp_connectivity f.connectivity) );
     ]
    @ (match f.disconnecting with
      | Some fault -> [ ("disconnecting_fault", Fault.to_json fault) ]
      | None -> [])
    @
    match f.deadline_slack_ms with
    | Some slack -> [ ("deadline_slack_ms", Json.Number slack) ]
    | None -> [])

let synthesize ?(seed = 42) ?(trials = 1) ?(domains = 1) ?(budget_ms = infinity)
    ?deadline ?(faults = []) topo spec =
  if domains <= 0 then invalid_arg "Resilience.synthesize: domains must be positive";
  let t0 = Unix.gettimeofday () in
  (* The effective deadline layers the caller's absolute deadline over the
     configured budget: whichever comes first wins. It is threaded into
     every synthesis attempt (where the round loop polls it), so one
     oversized trial can no longer overshoot the budget unboundedly — the
     old code only looked at the clock *between* rungs. *)
  let eff_deadline =
    Deadline.min_opt deadline
      (if budget_ms = infinity then None else Some (Deadline.after_ms budget_ms))
  in
  let out_of_time () =
    match eff_deadline with Some d -> Deadline.expired d | None -> false
  in
  let fail stage message ~connectivity ~disconnecting =
    Obs.incr obs_failures;
    Error
      {
        stage;
        message;
        connectivity;
        disconnecting;
        deadline_slack_ms = Option.map Deadline.slack_ms eff_deadline;
      }
  in
  match Fault.validate topo faults with
  | Error msg ->
    fail "faults" msg ~connectivity:(Fault.connectivity topo) ~disconnecting:None
  | Ok () ->
    let degraded = if faults = [] then topo else Fault.apply topo faults in
    let connectivity = Fault.connectivity degraded in
    let disconnecting () =
      if faults = [] then None else Fault.disconnecting_fault topo faults
    in
    (match connectivity with
    | Fault.Disconnected _ -> Obs.incr obs_disconnected
    | Fault.Connected -> ());
    (* One synthesis attempt; [Stuck] is the only exception the ladder
       absorbs at this rung ([Unsupported] is about the pattern, not the
       fabric — reseeding cannot help, so it drops straight to baselines). *)
    let attempt s =
      if spec.Spec.pattern = Pattern.All_to_all then
        Tacos.Router.synthesize ~seed:s degraded spec
      else Synth.synthesize ~seed:s ~trials ~domains ?deadline:eff_deadline degraded spec
    in
    let finish ~retries ~rungs plan =
      let simulated_time =
        match plan with
        | Synthesized result -> Tacos.Tuner.simulated_time degraded result
        | Baseline { report; _ } -> report.Engine.finish_time
      in
      Ok
        {
          plan;
          simulated_time;
          retries;
          rungs = List.rev rungs;
          wall_seconds = Unix.gettimeofday () -. t0;
        }
    in
    let baseline_rung ~retries ~rungs reason =
      Obs.incr obs_baseline;
      match Algo.best_feasible degraded spec with
      | Some (algo, report) ->
        finish ~retries
          ~rungs:(Printf.sprintf "baseline %s" (Algo.name algo) :: rungs)
          (Baseline { algo; report })
      | None ->
        fail "baseline"
          (reason ^ "; no baseline algorithm is feasible on this fabric either")
          ~connectivity ~disconnecting:(disconnecting ())
    in
    (* Reseed stream: deterministic per (seed, attempt index). *)
    let reseeder = Rng.create seed in
    let rec ladder ~retries ~rungs s =
      (* Pre-attempt deadline gate: a request whose deadline has already
         passed (a server near exhaustion) skips straight to the cheap
         baseline rung instead of starting a synthesis it would abandon. *)
      if out_of_time () then begin
        Obs.incr obs_deadline;
        let late =
          match eff_deadline with
          | Some d -> -.Deadline.slack_ms d
          | None -> 0.
        in
        baseline_rung ~retries
          ~rungs:("deadline exhausted" :: rungs)
          (Printf.sprintf "deadline already %.1f ms past before synthesis started"
             late)
      end
      else
        match attempt s with
        | result ->
          Obs.incr obs_ok;
          finish ~retries ~rungs:("synthesized" :: rungs) (Synthesized result)
        | exception Synth.Unsupported msg ->
          baseline_rung ~retries
            ~rungs:(Printf.sprintf "unsupported: %s" msg :: rungs)
            ("pattern unsupported by the synthesizer: " ^ msg)
        | exception Synth.Deadline_exceeded ->
          (* The round loop bailed out mid-synthesis: degrade to the best
             feasible baseline rather than blow the deadline further. *)
          Obs.incr obs_deadline;
          baseline_rung ~retries
            ~rungs:("deadline exceeded" :: rungs)
            "deadline exceeded mid-synthesis"
        | exception Synth.Stuck msg ->
          (* On a disconnected fabric Stuck is deterministic — reseeding is
             futile, so go straight to the structured report. *)
          if connectivity <> Fault.Connected then
            fail "connectivity" msg ~connectivity ~disconnecting:(disconnecting ())
          else if retries >= 3 then
            baseline_rung ~retries
              ~rungs:(Printf.sprintf "stuck after %d reseeds" retries :: rungs)
              (Printf.sprintf "synthesis stuck after %d reseeded retries: %s" retries
                 msg)
          else if out_of_time () then
            baseline_rung ~retries
              ~rungs:(Printf.sprintf "budget %.0fms exhausted" budget_ms :: rungs)
              (Printf.sprintf "synthesis budget (%.0f ms) exhausted while stuck: %s"
                 budget_ms msg)
          else begin
            Obs.incr obs_retries;
            ladder ~retries:(retries + 1)
              ~rungs:(Printf.sprintf "reseed(%d)" (retries + 1) :: rungs)
              (Int64.to_int (Rng.bits64 reseeder))
          end
    in
    ladder ~retries:0 ~rungs:[] seed

(* --- degradation analysis ------------------------------------------------ *)

type health =
  | Intact
  | Degraded_timing of { links : int list }
  | Broken of { links : int list; lost_sends : int }

type analysis = {
  health : health;
  replay_time : float option;
  resynth : (outcome, failure) result;
  resynth_time : float option;
  advantage : float option;
}

let health_to_string = function
  | Intact -> "intact"
  | Degraded_timing { links } ->
    Printf.sprintf "degraded-timing (%d slowed links in use)" (List.length links)
  | Broken { links; lost_sends } ->
    let n = List.length links in
    Printf.sprintf "broken (%d send%s ride %d dead link%s)" lost_sends
      (if lost_sends = 1 then "" else "s")
      n
      (if n = 1 then "" else "s")

let classify topo faults (result : Synth.result) =
  let dead = Fault.killed_links topo faults in
  let slowed = List.map fst (Fault.degraded_links topo faults) in
  let used_dead = Hashtbl.create 8 and used_slow = Hashtbl.create 8 in
  let lost = ref 0 in
  List.iter
    (fun (s : Schedule.send) ->
      if List.mem s.Schedule.edge dead then begin
        incr lost;
        Hashtbl.replace used_dead s.Schedule.edge ()
      end
      else if List.mem s.Schedule.edge slowed then
        Hashtbl.replace used_slow s.Schedule.edge ())
    (Schedule.sends result.Synth.schedule);
  let ids tbl = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) tbl []) in
  if !lost > 0 then Broken { links = ids used_dead; lost_sends = !lost }
  else if Hashtbl.length used_slow > 0 then Degraded_timing { links = ids used_slow }
  else Intact

let analyze ?(seed = 42) ?(trials = 1) ?(domains = 1) ?budget_ms topo faults
    (result : Synth.result) =
  let health = classify topo faults result in
  let degraded = Fault.apply topo faults in
  (* Replay the healthy schedule's transfers on the degraded fabric: the
     engine reroutes sends whose direct link died (store-and-forward), so
     this is the cost of *not* re-synthesizing. *)
  let replay_time =
    match Tacos.Tuner.replay degraded result with
    | report -> if report.Engine.stranded = [] then Some report.Engine.finish_time else None
    | exception Engine.Simulation_error _ -> None
    | exception Failure _ -> None
  in
  let resynth =
    synthesize ~seed ~trials ~domains ?budget_ms ~faults topo result.Synth.spec
  in
  let resynth_time =
    match resynth with Ok o -> Some o.simulated_time | Error _ -> None
  in
  let advantage =
    match (replay_time, resynth_time) with
    | Some r, Some s when s > 0. -> Some (r /. s)
    | _ -> None
  in
  { health; replay_time; resynth; resynth_time; advantage }


(* --- mid-flight repair --------------------------------------------------- *)

let obs_repair_suffix = Obs.counter "resilience.repair_suffix"
let obs_repair_full = Obs.counter "resilience.repair_full"
let obs_repair_complete = Obs.counter "resilience.repair_complete"
let obs_epoch_total = Obs.counter "resilience.epoch.total"
let obs_epoch_suffix = Obs.counter "resilience.epoch.suffix"
let obs_epoch_full = Obs.counter "resilience.epoch.full"
let obs_epoch_complete = Obs.counter "resilience.epoch.complete"
let obs_epoch_failed = Obs.counter "resilience.epoch.failed"

type strategy =
  | Suffix of {
      kept_sends : int;
      replanned : int;
      schedule : Schedule.t;
      plan : Synth.plan;
    }
  | Complete_already
  | Full of { reason : string; outcome : outcome }

type repaired = {
  strategy : strategy;
  completion_time : float;
  synth_wall_seconds : float;
  verified : (unit, string) result;
}

let strategy_name = function
  | Suffix _ -> "suffix"
  | Complete_already -> "complete"
  | Full _ -> "full"

(* Simulate the repair patch (fault-relative times) on the degraded fabric to
   get the absolute completion time of the patched collective. The engine
   routes by endpoints, not link ids, so the patch's healthy-id-space
   schedule simulates directly on the renumbered degraded topology. *)
let suffix_completion ~at degraded ~chunk_size schedule =
  if Schedule.num_sends schedule = 0 then at
  else
    let program = Program.of_schedule ~chunk_size schedule in
    at +. (Engine.run degraded program).Engine.finish_time

(* The two phases of a repairable collective, on one absolute clock in
   healthy link ids: [combining] moves partial sums, [pull] replicates
   full copies. Kept prefixes and repair patches accumulate into the same
   shape across epochs, so one reduction-aware validation covers the
   composite end to end. *)
type phase_split = { combining : Schedule.t; pull : Schedule.t }

let phase_split_of (result : Synth.result) =
  match result.Synth.spec.Spec.pattern with
  | Pattern.All_gather | Pattern.Broadcast _ ->
    Some { combining = Schedule.empty; pull = result.Synth.schedule }
  | Pattern.Reduce_scatter | Pattern.Reduce _ ->
    Some { combining = result.Synth.schedule; pull = Schedule.empty }
  | Pattern.All_reduce -> (
    match result.Synth.phases with
    | Some (rs, ag) -> Some { combining = rs; pull = ag }
    | None -> None)
  | Pattern.All_to_all | Pattern.Gather _ | Pattern.Scatter _ -> None

(* Everything one repair epoch needs to know about the collective. The
   [contributors] of every supported pattern are exactly its spec
   precondition: each initial holder of a chunk contributes its copy (for
   pure-movement patterns that single contribution *is* the full value, so
   the reduction tracker degenerates to position tracking). [exp] is the
   healthy fabric's cached TEN expansion, shared by every repair trial and
   epoch. *)
type ctx = {
  topo : Topology.t;
  exp : Ten.Expansion.t;
  spec : Spec.t;
  num_chunks : int;
  chunk_size : float;
  contributors : (int * int) list;
  postcondition : (int * int) list;
}

let make_ctx ?reuse topo spec =
  {
    topo;
    exp = (match reuse with Some e -> e | None -> Ten.Expansion.prepare topo);
    spec;
    num_chunks = Spec.num_chunks spec;
    chunk_size = Spec.chunk_size spec;
    contributors = Spec.precondition spec;
    postcondition = Spec.postcondition spec;
  }

(* One reduction-aware repair epoch at time [at]:

   1. keep every send of the current composite that finished by [at];
   2. replay the kept prefix ({!Schedule.Reduction}) to recover positions
      (full copies) and in-flight partial sums; a prefix that is not a valid
      reduction falls back to full re-synthesis, as a stuck patch does;
   3. re-synthesize only the unmet remainder as a positional goal with
      reduction state, over the healthy fabric's cached expansion with the
      accumulated dead/slowed links masked;
   4. validate the new composite (kept prefix + patch) end to end on the
      healthy topology, with dead links forbidden from their kill times.

   [dead]/[slowed]/[forbidden] are the *accumulated* fault state; [degraded]
   the correspondingly degraded topology (for completion simulation only). *)
let repair_step ~seed ~trials ~domains ~at ~dead ~slowed ~forbidden ~degraded
    ctx split =
  let eps = Schedule.eps_for at in
  let keep (s : Schedule.send) = s.Schedule.finish <= at +. eps in
  let kept_c = List.filter keep (Schedule.sends split.combining) in
  let kept_p = List.filter keep (Schedule.sends split.pull) in
  let kept_combining = Schedule.make kept_c in
  let kept_pull = Schedule.make kept_p in
  let full state (d, c) = Schedule.Reduction.is_full state ~npu:d ~chunk:c in
  match
    Schedule.Reduction.replay ctx.topo ~contributions:ctx.contributors
      ~num_chunks:ctx.num_chunks ~chunk_size:ctx.chunk_size ~combining:kept_combining
      ~pull:kept_pull
  with
  | Error msg -> `Fall_back ("kept prefix is not a valid reduction: " ^ msg)
  | Ok state when List.for_all (full state) ctx.postcondition ->
    Obs.incr obs_repair_complete;
    let done_at =
      List.fold_left
        (fun acc (s : Schedule.send) -> Float.max acc s.Schedule.finish)
        0. (kept_c @ kept_p)
    in
    `Repaired
      ( {
          strategy = Complete_already;
          completion_time = done_at;
          synth_wall_seconds = 0.;
          verified = Ok ();
        },
        { combining = kept_combining; pull = kept_pull } )
  | Ok state ->
    let goal =
      {
        Synth.num_chunks = ctx.num_chunks;
        chunk_size = ctx.chunk_size;
        precondition = Schedule.Reduction.positions state;
        postcondition = ctx.postcondition;
        contributors = ctx.contributors;
        partials = Schedule.Reduction.partials state;
      }
    in
    (* Repair optimizes the metric it reports: each trial's patch is scored
       by its simulated completion on the degraded fabric (the scheduled
       makespan ignores congestion, which can reorder near-parity patches).
       Trials are independent single-trial syntheses over the shared cached
       expansion, so the fan-out stays cheap. *)
    let candidate i =
      match
        Synth.synthesize_goal_plan ~seed:(seed + (1009 * i)) ~trials:1
          ~domains:1 ~reuse:ctx.exp ~dead ~slowed ctx.topo goal
      with
      | plan, (stats : Synth.stats) ->
        let patch = Schedule.union plan.Synth.combining plan.Synth.pull in
        let completion =
          suffix_completion ~at degraded ~chunk_size:ctx.chunk_size patch
        in
        Ok (plan, stats, patch, completion)
      | exception Synth.Stuck msg -> Error msg
    in
    let candidates =
      if trials <= 1 then [| candidate 0 |]
      else if domains > 1 then
        Tacos_util.Pool.map (Tacos_util.Pool.global ~size:domains ()) candidate trials
      else Array.init trials candidate
    in
    let best =
      Array.fold_left
        (fun acc c ->
          match (acc, c) with
          | None, _ | Some (Error _), Ok _ -> Some c
          | Some (Ok (_, _, _, b)), Ok (_, _, _, cand) when cand < b -> Some c
          | _ -> acc)
        None candidates
    in
    match best with
    | None | Some (Error _) ->
      `Fall_back
        ("suffix synthesis stuck: "
        ^ match best with Some (Error msg) -> msg | _ -> "no repair trial ran")
    | Some (Ok (plan, stats, patch, completion)) ->
      Obs.incr obs_repair_suffix;
      let composite =
        {
          combining =
            Schedule.union kept_combining (Schedule.shift plan.Synth.combining at);
          pull = Schedule.union kept_pull (Schedule.shift plan.Synth.pull at);
        }
      in
      let verified =
        Schedule.validate_reduction ctx.topo ~forbidden
          ~contributions:ctx.contributors ~postcondition:ctx.postcondition
          ~num_chunks:ctx.num_chunks ~chunk_size:ctx.chunk_size
          ~combining:composite.combining ~pull:composite.pull ()
      in
      `Repaired
        ( {
            strategy =
              Suffix
                {
                  kept_sends = List.length kept_c + List.length kept_p;
                  replanned = Schedule.num_sends patch;
                  schedule = patch;
                  plan;
                };
            completion_time = completion;
            synth_wall_seconds = stats.Synth.wall_seconds;
            verified;
          },
          composite )

(* Fall through to the full fallback ladder when suffix repair cannot apply
   (no phase split, pairwise semantics, or a stuck patch synthesis). *)
let repair_full ~seed ~trials ~domains ~budget_ms ~at topo faults spec reason =
  match synthesize ~seed ~trials ~domains ?budget_ms ~faults topo spec with
  | Ok outcome ->
    Obs.incr obs_repair_full;
    let verified =
      match outcome.plan with
      | Synthesized r -> Synth.verify (Fault.apply topo faults) r
      | Baseline _ -> Ok ()
    in
    Ok
      {
        strategy = Full { reason; outcome };
        completion_time = at +. outcome.simulated_time;
        synth_wall_seconds = outcome.wall_seconds;
        verified;
      }
  | Error f -> Error f

(* Lift a full re-synthesis (degraded link ids, fault-relative times) back
   into the composite's healthy-id absolute-time phase split, so later fault
   epochs can keep repairing it. Baseline fallbacks carry no schedule and
   cannot be lifted. *)
let lift_full ~at topo faults spec (o : outcome) =
  match o.plan with
  | Baseline _ -> None
  | Synthesized r -> (
    let map = Fault.link_id_map topo faults in
    let lift s =
      Schedule.shift
        (Schedule.make
           (List.map
              (fun (snd : Schedule.send) ->
                { snd with Schedule.edge = map.(snd.Schedule.edge) })
              (Schedule.sends s)))
        at
    in
    match spec.Spec.pattern with
    | Pattern.All_reduce -> (
      match r.Synth.phases with
      | Some (rs, ag) -> Some { combining = lift rs; pull = lift ag }
      | None -> None)
    | Pattern.Reduce_scatter | Pattern.Reduce _ ->
      Some { combining = lift r.Synth.schedule; pull = Schedule.empty }
    | _ -> Some { combining = Schedule.empty; pull = lift r.Synth.schedule })

let repair ?(seed = 42) ?(trials = 1) ?(domains = 1) ?budget_ms ?reuse ~at topo
    faults (result : Synth.result) =
  if not (at >= 0.) then invalid_arg "Resilience.repair: fault time must be >= 0";
  match Fault.validate topo faults with
  | Error msg ->
    Obs.incr obs_failures;
    Error
      {
        stage = "faults";
        message = msg;
        connectivity = Fault.connectivity topo;
        disconnecting = None;
        deadline_slack_ms = None;
      }
  | Ok () -> (
    let spec = result.Synth.spec in
    let full reason =
      repair_full ~seed ~trials ~domains ~budget_ms ~at topo faults spec reason
    in
    match phase_split_of result with
    | None -> (
      match spec.Spec.pattern with
      | Pattern.All_reduce -> full "All-Reduce result carries no phase split"
      | _ ->
        full
          (Pattern.name spec.Spec.pattern
          ^ ": pairwise/rooted semantics — partial progress is not \
             re-seedable as a positional goal"))
    | Some split -> (
      let ctx = make_ctx ?reuse topo spec in
      let dead = Fault.killed_links topo faults in
      let slowed = Fault.degraded_links topo faults in
      let forbidden = List.map (fun e -> (e, at)) dead in
      let degraded = Fault.apply topo faults in
      match
        repair_step ~seed ~trials ~domains ~at ~dead ~slowed ~forbidden
          ~degraded ctx split
      with
      | `Repaired (repaired, _) -> Ok repaired
      | `Fall_back reason -> full reason))

(* --- multi-epoch repair --------------------------------------------------- *)

type epoch = { at : float; faults : Fault.t list; repaired : repaired }

type timeline_repair = {
  epochs : epoch list;
  combining : Schedule.t;
  pull : Schedule.t;
  schedule : Schedule.t;
  completion_time : float;
  verified : (unit, string) result;
}

let repair_timeline ?(seed = 42) ?(trials = 1) ?(domains = 1) ?budget_ms ?reuse
    ~events topo (result : Synth.result) =
  if events = [] then
    invalid_arg "Resilience.repair_timeline: events must be non-empty";
  let fail stage message ~connectivity ~disconnecting =
    Obs.incr obs_failures;
    Error { stage; message; connectivity; disconnecting; deadline_slack_ms = None }
  in
  match Fault.validate_events topo events with
  | Error msg ->
    fail "timeline" msg ~connectivity:(Fault.connectivity topo)
      ~disconnecting:None
  | Ok () -> (
    let spec = result.Synth.spec in
    match phase_split_of result with
    | None ->
      fail "timeline"
        (Pattern.name spec.Spec.pattern
        ^ ": no positional phase split — multi-epoch repair needs one")
        ~connectivity:(Fault.connectivity topo) ~disconnecting:None
    | Some split ->
      let ctx = make_ctx ?reuse topo spec in
      (* Per-epoch seeds derived from the epoch index, so each epoch's
         synthesis stream is deterministic regardless of earlier epochs'
         strategies — and a single-epoch timeline draws exactly like
         [repair ~seed]. *)
      let epoch_seed i = seed + (7919 * i) in
      let rec go i epochs_rev (split : phase_split) faults_all forbidden last_completion =
        function
        | [] ->
          let verified =
            Schedule.validate_reduction topo ~forbidden
              ~contributions:ctx.contributors ~postcondition:ctx.postcondition
              ~num_chunks:ctx.num_chunks ~chunk_size:ctx.chunk_size
              ~combining:split.combining ~pull:split.pull ()
          in
          Ok
            {
              epochs = List.rev epochs_rev;
              combining = split.combining;
              pull = split.pull;
              schedule = Schedule.union split.combining split.pull;
              completion_time = last_completion;
              verified;
            }
        | (at, faults) :: rest -> (
          Obs.incr obs_epoch_total;
          let epoch_seed = epoch_seed i in
          let faults_all = faults_all @ faults in
          let forbidden =
            forbidden @ List.map (fun e -> (e, at)) (Fault.killed_links topo faults)
          in
          let dead = Fault.killed_links topo faults_all in
          let slowed = Fault.degraded_links topo faults_all in
          let degraded = Fault.apply topo faults_all in
          let continue repaired split' =
            go (i + 1)
              ({ at; faults; repaired } :: epochs_rev)
              split' faults_all forbidden repaired.completion_time rest
          in
          let fall_back reason =
            match
              repair_full ~seed:epoch_seed ~trials ~domains ~budget_ms ~at topo
                faults_all spec reason
            with
            | Error f ->
              Obs.incr obs_epoch_failed;
              Error f
            | Ok repaired -> (
              let outcome =
                match repaired.strategy with
                | Full { outcome; _ } -> Some outcome
                | _ -> None
              in
              match
                Option.bind outcome (lift_full ~at topo faults_all spec)
              with
              | Some split' ->
                Obs.incr obs_epoch_full;
                continue repaired split'
              | None ->
                Obs.incr obs_epoch_failed;
                fail
                  (Printf.sprintf "epoch@%g" at)
                  "full re-synthesis fell back to a baseline algorithm, \
                   which carries no schedule to repair in later epochs"
                  ~connectivity:(Fault.connectivity degraded)
                  ~disconnecting:(Fault.disconnecting_fault topo faults_all))
          in
          match
            repair_step ~seed:epoch_seed ~trials ~domains ~at ~dead ~slowed
              ~forbidden ~degraded ctx split
          with
          | `Repaired (repaired, split') ->
            (match repaired.strategy with
            | Suffix _ -> Obs.incr obs_epoch_suffix
            | Complete_already -> Obs.incr obs_epoch_complete
            | Full _ -> ());
            continue repaired split'
          | `Fall_back reason -> fall_back reason)
      in
      go 0 [] split [] [] 0. events)
