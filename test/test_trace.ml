(* Tests for the execution-tracing layer: lifecycle recording in the engine,
   zero-effect-when-disabled discipline, the Chrome trace-event exporter and
   its validator, the critical-path attribution invariants, and the
   domain/trial stamping of concurrent recorders. *)

open Tacos_topology
open Tacos_collective
open Tacos_sim
module Obs = Tacos_obs.Obs
module Trace = Tacos_obs.Trace
module Chrome = Tacos_obs.Chrome
module Critpath = Tacos_obs.Critpath
module Json = Tacos_util.Json
module Synth = Tacos.Synthesizer

(* Recording is global; every test starts clean and leaves it disabled. *)
let with_fresh_trace f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* A synthesized All-Reduce on a 3x3 mesh replayed under the engine, with
   phase-carrying transfer tags — the `tacos trace` pipeline in miniature. *)
let traced_all_reduce () =
  let topo = Builders.mesh [| 3; 3 |] in
  let spec =
    Spec.make ~chunks_per_npu:1 ~buffer_size:9e6 ~pattern:Pattern.All_reduce
      ~npus:(Topology.num_npus topo) ()
  in
  let result = Synth.synthesize ~seed:7 topo spec in
  let tag_of =
    match result.Synth.phases with
    | Some (rs, _) ->
      fun (s : Schedule.send) ->
        Printf.sprintf "%s:chunk%d" (Schedule.phase_of_send ~reduce_scatter:rs s) s.chunk
    | None -> fun (s : Schedule.send) -> Printf.sprintf "chunk%d" s.chunk
  in
  let program =
    Program.of_schedule ~tag_of ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule
  in
  (topo, program, Engine.run topo program)

let test_disabled_leaves_engine_identical () =
  Trace.reset ();
  Trace.disable ();
  let topo = Builders.mesh [| 3; 3 |] in
  let spec =
    Spec.make ~chunks_per_npu:1 ~buffer_size:9e6 ~pattern:Pattern.All_gather
      ~npus:(Topology.num_npus topo) ()
  in
  let result = Synth.synthesize ~seed:3 topo spec in
  let program =
    Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule
  in
  let off = Engine.run topo program in
  let d = Trace.dump () in
  Alcotest.(check int) "no events recorded while disabled" 0 (List.length d.Trace.events);
  let on = with_fresh_trace (fun () -> Engine.run topo program) in
  (* The report is a plain record of floats/arrays/lists: structural
     equality IS bit-identity of every simulated quantity. *)
  Alcotest.(check bool) "reports identical with tracing on vs off" true (off = on)

let test_lifecycle_shape () =
  let (_, program, _), d =
    with_fresh_trace (fun () ->
        let r = traced_all_reduce () in
        (r, Trace.dump ()))
  in
  let nt = Program.num_transfers program in
  let per_tid = Array.make nt [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.ev with
      | Trace.Deps_ready { tid; _ }
      | Trace.Enqueued { tid; _ }
      | Trace.Service_start { tid; _ }
      | Trace.Service_end { tid; _ }
      | Trace.Arrived { tid; _ }
      | Trace.Completed { tid } ->
        per_tid.(tid) <- e :: per_tid.(tid)
      | _ -> ())
    d.Trace.events;
  Array.iteri
    (fun tid rev ->
      match List.rev rev with
      | [] -> Alcotest.failf "transfer %d left no events" tid
      | first :: _ as evs ->
        (match first.Trace.ev with
        | Trace.Deps_ready _ -> ()
        | _ -> Alcotest.failf "transfer %d does not start with deps_ready" tid);
        (match List.rev evs with
        | { Trace.ev = Trace.Completed _; _ } :: _ -> ()
        | _ -> Alcotest.failf "transfer %d does not end with completed" tid);
        let last_t = ref 0. in
        let starts = ref 0 and ends = ref 0 in
        List.iter
          (fun (e : Trace.event) ->
            Alcotest.(check bool) "lifecycle chronological" true (e.Trace.t >= !last_t);
            last_t := e.Trace.t;
            match e.Trace.ev with
            | Trace.Service_start _ -> incr starts
            | Trace.Service_end _ -> incr ends
            | _ -> ())
          evs;
        (* A healthy run never aborts: every service that starts ends. *)
        Alcotest.(check int)
          (Printf.sprintf "transfer %d service starts pair with ends" tid)
          !starts !ends)
    per_tid

let test_critpath_attribution_sums_to_makespan () =
  let (_topo, program, report), d =
    with_fresh_trace (fun () ->
        let r = traced_all_reduce () in
        (r, Trace.dump ()))
  in
  Alcotest.(check bool) "events recorded" true (d.Trace.events <> []);
  let transfers = Program.transfers program in
  let phase_of tid =
    let tag = transfers.(tid).Program.tag in
    match String.index_opt tag ':' with
    | Some i -> String.sub tag 0 i
    | None -> tag
  in
  match Critpath.analyze ~phase_of d.Trace.events with
  | None -> Alcotest.fail "no critical path found"
  | Some cp ->
    let eps = Schedule.eps_for report.Engine.finish_time in
    Alcotest.(check bool) "critical-path length equals the simulated makespan" true
      (Float.abs (cp.Critpath.makespan -. report.Engine.finish_time) <= eps);
    Alcotest.(check bool) "attribution sums to the makespan" true
      (Float.abs (Critpath.attributed_total cp -. cp.Critpath.makespan) <= eps);
    (* The segments are an ascending, non-overlapping partition of
       [0, makespan]. *)
    let last_end = ref 0. in
    List.iter
      (fun (s : Critpath.segment) ->
        Alcotest.(check bool) "segment has positive width" true (s.t1 > s.t0);
        Alcotest.(check bool) "segments are contiguous" true
          (Float.abs (s.t0 -. !last_end) <= eps);
        last_end := s.t1)
      cp.Critpath.segments;
    Alcotest.(check bool) "partition ends at the makespan" true
      (Float.abs (!last_end -. cp.Critpath.makespan) <= eps);
    (* Both phases of the All-Reduce appear, and their shares also
       reconstruct the makespan. *)
    let phase_sum =
      List.fold_left
        (fun acc (_, cats) -> List.fold_left (fun a (_, v) -> a +. v) acc cats)
        0. cp.Critpath.per_phase
    in
    Alcotest.(check bool) "per-phase shares sum to the makespan" true
      (Float.abs (phase_sum -. cp.Critpath.makespan) <= eps);
    List.iter
      (fun phase ->
        Alcotest.(check bool)
          (phase ^ " phase present") true
          (List.mem_assoc phase cp.Critpath.per_phase))
      [ "reduce-scatter"; "all-gather" ]

let test_chrome_export_validates () =
  let (topo, _, _), d =
    with_fresh_trace (fun () ->
        let r = traced_all_reduce () in
        (r, Trace.dump ()))
  in
  let doc = Chrome.export ~num_links:(Topology.num_links topo) d in
  (match Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("emitted trace fails validation: " ^ e));
  (* Spot-check the golden structure on top of the validator: events exist,
     and service slices pair one X per Service_end. *)
  match Json.member "traceEvents" doc with
  | Some (Json.Array events) ->
    let count ph =
      List.length
        (List.filter
           (fun ev -> Json.member "ph" ev = Some (Json.String ph))
           events)
    in
    let ends =
      List.length
        (List.filter
           (fun (e : Trace.event) ->
             match e.Trace.ev with Trace.Service_end _ -> true | _ -> false)
           d.Trace.events)
    in
    Alcotest.(check bool) "has events" true (List.length events > 0);
    Alcotest.(check bool) "one duration slice per completed service" true
      (count "X" >= ends);
    Alcotest.(check int) "async begins match async ends" (count "b") (count "e")
  | _ -> Alcotest.fail "no traceEvents array"

let test_validator_rejects_corrupt_documents () =
  let reject what doc =
    match Chrome.validate doc with
    | Ok () -> Alcotest.fail (what ^ ": should have been rejected")
    | Error _ -> ()
  in
  reject "no traceEvents" (Json.Object [ ("foo", Json.Number 1.) ]);
  let meta =
    [
      Json.Object
        [
          ("ph", Json.String "M"); ("name", Json.String "process_name");
          ("pid", Json.Number 1.); ("tid", Json.Number 0.); ("ts", Json.Number 0.);
        ];
      Json.Object
        [
          ("ph", Json.String "M"); ("name", Json.String "thread_name");
          ("pid", Json.Number 1.); ("tid", Json.Number 0.); ("ts", Json.Number 0.);
        ];
    ]
  in
  let ev ?(ph = "i") ?(ts = 1.) ?(extra = []) () =
    Json.Object
      ([
         ("ph", Json.String ph); ("name", Json.String "e"); ("pid", Json.Number 1.);
         ("tid", Json.Number 0.); ("ts", Json.Number ts);
       ]
      @ extra)
  in
  let doc evs = Json.Object [ ("traceEvents", Json.Array (meta @ evs)) ] in
  reject "negative timestamp" (doc [ ev ~ts:(-1.) () ]);
  reject "non-monotone timestamps" (doc [ ev ~ts:5. (); ev ~ts:1. () ]);
  reject "X without dur" (doc [ ev ~ph:"X" () ]);
  reject "negative dur"
    (doc [ ev ~ph:"X" ~extra:[ ("dur", Json.Number (-3.)) ] () ]);
  reject "unnamed lane"
    (Json.Object
       [
         ( "traceEvents",
           Json.Array
             [
               Json.Object
                 [
                   ("ph", Json.String "i"); ("name", Json.String "e");
                   ("pid", Json.Number 9.); ("tid", Json.Number 9.);
                   ("ts", Json.Number 0.);
                 ];
             ] );
       ]);
  reject "unbalanced async begin"
    (doc
       [
         ev ~ph:"b"
           ~extra:[ ("cat", Json.String "q"); ("id", Json.Number 1.) ]
           ();
       ]);
  reject "async end before begin"
    (doc
       [
         ev ~ph:"e"
           ~extra:[ ("cat", Json.String "q"); ("id", Json.Number 1.) ]
           ();
       ])

let test_fault_events_traced_and_exportable () =
  (* Two parallel routes 0->1->3 and 0->2->3; the 1->3 link dies while
     busy, displacing traffic — the trace must record the fault and the
     abort, and the export must still balance its async pairs. *)
  let topo = Topology.create 4 in
  Topology.add_bidir topo 0 1 (Link.make ~alpha:1e-6 ~beta:1e-8);
  Topology.add_bidir topo 1 3 (Link.make ~alpha:1e-6 ~beta:1e-8);
  Topology.add_bidir topo 0 2 (Link.make ~alpha:1e-6 ~beta:1e-8);
  Topology.add_bidir topo 2 3 (Link.make ~alpha:1e-6 ~beta:1e-8);
  let die =
    match Topology.find_links topo ~src:1 ~dst:3 with
    | e :: _ -> e.Topology.id
    | [] -> Alcotest.fail "no 1->3 link"
  in
  let b = Program.builder () in
  for _ = 1 to 6 do
    ignore (Program.add b ~src:0 ~dst:3 ~size:100. ())
  done;
  let program = Program.build b in
  let faults = [ Engine.Link_dies { link = die; at = 1e-6 } ] in
  let report, d =
    with_fresh_trace (fun () ->
        let r = Engine.run ~faults topo program in
        (r, Trace.dump ()))
  in
  let has p = List.exists (fun (e : Trace.event) -> p e.Trace.ev) d.Trace.events in
  Alcotest.(check bool) "fault recorded" true
    (has (function Trace.Fault { kind = "dies"; _ } -> true | _ -> false));
  Alcotest.(check bool) "abort or reroute recorded" true
    (has (function Trace.Service_aborted _ | Trace.Rerouted _ -> true | _ -> false));
  Alcotest.(check bool) "run completed" true (report.Engine.stranded = []);
  let doc = Chrome.export ~num_links:(Topology.num_links topo) d in
  match Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("faulted trace fails validation: " ^ e)

(* --- domain / trial stamping -------------------------------------------- *)

let test_obs_trace_stamps_domain_and_trial () =
  let d =
    with_fresh_trace (fun () ->
        Obs.with_trial 3 (fun () -> Trace.emit ~t:0. (Trace.Completed { tid = 0 }));
        Alcotest.(check bool) "trial context restored" true (Obs.current_trial () = None);
        Trace.dump ())
  in
  match d.Trace.events with
  | [ e ] ->
    Alcotest.(check (option int)) "trial stamped" (Some 3) e.Trace.trial;
    Alcotest.(check int) "domain stamped" (Domain.self () :> int) e.Trace.domain
  | _ -> Alcotest.fail "expected exactly one event"

let test_concurrent_domains_attributable () =
  (* Events emitted concurrently from several domains, each under its own
     trial context, interleave in the shared buffer yet stay attributable —
     every event of trial i carries the domain that ran trial i. *)
  with_fresh_trace (fun () ->
      let worker i =
        Domain.spawn (fun () ->
            Obs.with_trial i (fun () ->
                for k = 0 to 9 do
                  Trace.emit ~t:(float_of_int k) (Trace.Completed { tid = (100 * i) + k })
                done;
                (Domain.self () :> int)))
      in
      let d1 = worker 1 and d2 = worker 2 in
      let dom1 = Domain.join d1 and dom2 = Domain.join d2 in
      Alcotest.(check bool) "distinct domains" true (dom1 <> dom2);
      let d = Trace.dump () in
      Alcotest.(check int) "all lifecycle events captured" 20
        (List.length d.Trace.events);
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.trial with
          | Some trial ->
            let expect = if trial = 1 then dom1 else dom2 in
            Alcotest.(check bool) "lifecycle event domain matches its trial" true
              (e.Trace.domain = expect)
          | None -> Alcotest.fail "lifecycle event missing trial stamp")
        d.Trace.events)

let test_synthesis_spans_recorded () =
  let d =
    with_fresh_trace (fun () ->
        let topo = Builders.mesh [| 3; 3 |] in
        let spec =
          Spec.make ~chunks_per_npu:1 ~buffer_size:9e6 ~pattern:Pattern.All_gather
            ~npus:(Topology.num_npus topo) ()
        in
        let _ = Synth.synthesize ~seed:7 ~trials:2 topo spec in
        Trace.dump ())
  in
  let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) d.Trace.spans in
  Alcotest.(check int) "one span per trial" 2 (List.length (named "trial"));
  Alcotest.(check bool) "round spans recorded" true (named "round" <> []);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "span is well-formed" true
        (s.Trace.t1 >= s.Trace.t0 && s.Trace.trial <> None))
    (named "trial");
  let trials =
    List.sort_uniq compare
      (List.filter_map (fun (s : Trace.span) -> s.Trace.trial) (named "trial"))
  in
  Alcotest.(check (Alcotest.list Alcotest.int)) "trial indices stamped" [ 0; 1 ] trials

let () =
  Alcotest.run "trace"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "disabled leaves the engine bit-identical" `Quick
            test_disabled_leaves_engine_identical;
          Alcotest.test_case "pipeline smoke" `Quick test_lifecycle_shape;
          Alcotest.test_case "fault events traced and exportable" `Quick
            test_fault_events_traced_and_exportable;
        ] );
      ( "critical path",
        [
          Alcotest.test_case "attribution sums to the makespan" `Quick
            test_critpath_attribution_sums_to_makespan;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "emitted document validates" `Quick
            test_chrome_export_validates;
          Alcotest.test_case "validator rejects corrupt documents" `Quick
            test_validator_rejects_corrupt_documents;
        ] );
      ( "attribution stamps",
        [
          Alcotest.test_case "obs trace stamps domain and trial" `Quick
            test_obs_trace_stamps_domain_and_trial;
          Alcotest.test_case "concurrent domains stay attributable" `Quick
            test_concurrent_domains_attributable;
          Alcotest.test_case "synthesis spans recorded per trial" `Quick
            test_synthesis_spans_recorded;
        ] );
    ]
