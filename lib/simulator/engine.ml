(* Namespaces of the substrate libraries. *)
open Tacos_topology
module Pq = Tacos_util.Pq
module Obs = Tacos_obs.Obs
module Trace = Tacos_obs.Trace

let obs_events = Obs.counter "engine.events"
let obs_queue_depth = Obs.histogram "engine.queue_depth"
let obs_max_queue = Obs.gauge "engine.max_queue_depth"
let obs_max_backlog = Obs.gauge "engine.max_backlog_seconds"
let obs_faults = Obs.counter "engine.fault_events"
let obs_reroutes = Obs.counter "engine.reroutes"
let obs_aborts = Obs.counter "engine.aborted_services"
let obs_stranded = Obs.counter "engine.stranded"
let obs_routing_rebuilds = Obs.counter "engine.routing_rebuilds"

type fault_event =
  | Link_dies of { link : int; at : float }
  | Link_degrades of { link : int; factor : float; at : float }
  | Link_recovers of { link : int; at : float }

let fault_time = function
  | Link_dies { at; _ } | Link_degrades { at; _ } | Link_recovers { at; _ } -> at

type stranded = { tid : int; tag : string; at_npu : int; dst : int; time : float }

type report = {
  finish_time : float;
  transfer_finish : float array;
  link_bytes : float array;
  link_busy : float array;
  link_intervals : (float * float) list array;
  stranded : stranded list;
}

type error_kind =
  | No_route of { src : int; dst : int }
  | Never_completed of { remaining : int }
  | Cyclic_program of { dep : int }

exception Simulation_error of { tid : int; tag : string; kind : error_kind }

let () =
  Printexc.register_printer (function
    | Simulation_error { tid; tag; kind } ->
      let what =
        match kind with
        | No_route { src; dst } ->
          Printf.sprintf "no route %d->%d on the healthy fabric" src dst
        | Never_completed { remaining } ->
          Printf.sprintf
            "never completed (%d transfers remaining) — cyclic dependencies?"
            remaining
        | Cyclic_program { dep } ->
          Printf.sprintf
            "depends on transfer %d, which is not earlier — cyclic program" dep
      in
      Some (Printf.sprintf "Engine.Simulation_error: transfer %d (%s): %s" tid tag what)
    | _ -> None)

(* A message in flight: which transfer it belongs to, the node it currently
   sits at, and the nodes still to visit. [aborted] invalidates the
   already-queued [Hop_arrived] event of a service cut short by a link
   death — the replanned copy of the message carries on instead. *)
type msg = {
  tid : int;
  mutable at : int;
  mutable rest : int list;
  mutable aborted : bool;
  mutable via : int;  (** link ridden into the pending [Hop_arrived]; -1 before *)
}

type event =
  | Ready of int  (** transfer id became ready *)
  | Link_free of int * int
      (** (link, serial): link finished serializing; stale serials — the link
          died and was re-armed since — are ignored *)
  | Hop_arrived of msg  (** message landed at the next node on its path *)
  | Fault of fault_event  (** a timed fabric change lands *)

type link_model = Pipelined_alpha | Blocking_alpha

let validate_faults topo faults =
  let m = Topology.num_links topo in
  List.iter
    (fun f ->
      let link =
        match f with
        | Link_dies { link; _ } | Link_degrades { link; _ } | Link_recovers { link; _ }
          ->
          link
      in
      if link < 0 || link >= m then
        invalid_arg
          (Printf.sprintf "Engine.run: fault names unknown link id %d (topology has %d)"
             link m);
      if not (fault_time f >= 0.) then
        invalid_arg "Engine.run: fault time must be non-negative";
      match f with
      | Link_degrades { factor; _ } when not (factor >= 1.) ->
        invalid_arg "Engine.run: degradation factor < 1"
      | _ -> ())
    faults

let run ?(model = Pipelined_alpha) ?routing_size ?(faults = []) topo program =
  let transfers = Program.transfers program in
  let nt = Array.length transfers in
  (match Program.first_forward_dep program with
  | None -> ()
  | Some (tid, dep) ->
    raise
      (Simulation_error { tid; tag = transfers.(tid).Program.tag; kind = Cyclic_program { dep } }));
  validate_faults topo faults;
  let routing_size =
    match routing_size with
    | Some s -> s
    | None ->
      if nt = 0 then 1.
      else Float.max 1. (Program.total_bytes program /. float_of_int nt)
  in
  let m = Topology.num_links topo in
  (* The link model follows the paper's analytical backend: a message holds
     the link for its serialization delay β·size (one message at a time,
     FCFS), and lands at the far end a propagation latency α after
     serialization ends. α does not block the next message — this is what
     lets latency-bound Direct beat Ring on a physical ring (Fig. 2b) while
     bandwidth-bound traffic still queues. *)
  let base_serialize = Array.make m 0. (* healthy β, seconds per byte *) in
  let base_latency = Array.make m 0. (* healthy α, seconds *) in
  let link_dst = Array.make m 0 in
  List.iter
    (fun (e : Topology.edge) ->
      base_serialize.(e.id) <- Link.cost e.link 1. -. Link.cost e.link 0.;
      base_latency.(e.id) <- Link.cost e.link 0.;
      link_dst.(e.id) <- e.dst)
    (Topology.edges topo);
  (* Each node's out-links in insertion order: the parallel links towards a
     next hop are scanned in the order [Topology.find_links] lists them. *)
  let out_links =
    Array.init (Topology.num_npus topo) (fun v ->
        Array.of_list (List.map (fun (e : Topology.edge) -> e.id) (Topology.out_edges topo v)))
  in
  (* Live link parameters: mutated by timed degrade/recover events. *)
  let serialize = Array.copy base_serialize in
  let latency = Array.copy base_latency in
  let alive = Array.make m true in
  let degrade_factor = Array.make m 1. in
  (* Per-link FCFS server state. [serial] re-arms a link after a death so
     that the stale [Link_free] of an aborted service is ignored. *)
  let queue = Array.init m (fun _ -> Queue.create ()) in
  let serving = Array.make m false in
  let in_service : msg option array = Array.make m None in
  let service_start = Array.make m 0. and service_end = Array.make m 0. in
  let serial = Array.make m 0 in
  let backlog = Array.make m 0. in
  (* Stats. *)
  let link_bytes = Array.make m 0. in
  let link_busy = Array.make m 0. in
  let link_intervals = Array.make m [] in
  let transfer_finish = Array.make nt infinity in
  let stranded = ref [] in
  (* Dependency bookkeeping. *)
  let indeg = Array.make nt 0 in
  let dependents = Array.make nt [] in
  (* For the lifecycle trace: the dependency whose completion made each
     transfer ready (-1 for roots) — the binding constraint the
     critical-path analyzer follows across transfers. *)
  let ready_cause = Array.make nt (-1) in
  Array.iter
    (fun (tr : Program.transfer) ->
      indeg.(tr.id) <- List.length tr.deps;
      List.iter (fun d -> dependents.(d) <- tr.id :: dependents.(d)) tr.deps)
    transfers;
  let events : event Pq.t = Pq.create () in
  let obs_on = Obs.enabled () in
  let trace_on = Trace.enabled () in
  (* Routing over the *surviving* fabric, rebuilt lazily once per fault
     epoch (the alive/degraded sets only change at fault events). The
     degraded view keeps the healthy NPU numbering, so node paths remain
     valid across epochs; only link liveness is re-read at enqueue time. *)
  let routing = ref None in
  let faulted = ref false in
  let current_routing () =
    match !routing with
    | Some t -> t
    | None ->
      Obs.incr obs_routing_rebuilds;
      let view =
        if not !faulted then topo
        else
          Topology.map_links topo (fun e ->
              if not alive.(e.id) then None
              else if degrade_factor.(e.id) = 1. then Some e.link
              else
                let l = e.link in
                Some
                  (Link.make
                     ~alpha:(l.Link.alpha *. degrade_factor.(e.id))
                     ~beta:(l.Link.beta *. degrade_factor.(e.id))))
      in
      let t = Routing.build_partial view ~size:routing_size in
      routing := Some t;
      t
  in
  (* Time the link is occupied by one message of [size] bytes — the unit of
     both FCFS service and backlog accounting, so the two can never drift. *)
  let hold_of link size =
    match model with
    | Pipelined_alpha -> serialize.(link) *. size
    | Blocking_alpha -> latency.(link) +. (serialize.(link) *. size)
  in
  let start_service link (msg : msg) t =
    serving.(link) <- true;
    in_service.(link) <- Some msg;
    msg.via <- link;
    if trace_on then Trace.emit ~t (Trace.Service_start { tid = msg.tid; link });
    let size = transfers.(msg.tid).Program.size in
    let hold = hold_of link size in
    let arrive =
      match model with
      | Pipelined_alpha -> t +. hold +. latency.(link)
      | Blocking_alpha -> t +. hold
    in
    service_start.(link) <- t;
    service_end.(link) <- t +. hold;
    link_bytes.(link) <- link_bytes.(link) +. size;
    link_busy.(link) <- link_busy.(link) +. hold;
    link_intervals.(link) <- (t, t +. hold) :: link_intervals.(link);
    Pq.push events (t +. hold) (Link_free (link, serial.(link)));
    Pq.push events arrive (Hop_arrived msg)
  in
  let strand (msg : msg) t =
    Obs.incr obs_stranded;
    if trace_on then
      Trace.emit ~t
        (Trace.Stranded
           { tid = msg.tid; node = msg.at; dst = transfers.(msg.tid).Program.dst });
    stranded :=
      {
        tid = msg.tid;
        tag = transfers.(msg.tid).Program.tag;
        at_npu = msg.at;
        dst = transfers.(msg.tid).Program.dst;
        time = t;
      }
      :: !stranded
  in
  (* Plan (or re-plan) [msg]'s remaining hops from the node it sits at, over
     the surviving fabric. Mutually recursive with [enqueue_hop]: a replan
     immediately enqueues the first hop of the fresh route. *)
  let rec replan (msg : msg) t ~complete =
    let dst = transfers.(msg.tid).Program.dst in
    if msg.at = dst then complete msg.tid t
    else
      match Routing.path_opt (current_routing ()) ~src:msg.at ~dst with
      | Some (_ :: (_ :: _ as rest)) ->
        msg.rest <- rest;
        enqueue_hop msg t ~complete
      | Some _ (* [] | [_] — cannot happen: msg.at <> dst *) | None ->
        if not !faulted then
          raise
            (Simulation_error
               {
                 tid = msg.tid;
                 tag = transfers.(msg.tid).Program.tag;
                 kind = No_route { src = msg.at; dst };
               })
        else strand msg t
  (* Hand a message to the least-backlogged *live* parallel link towards its
     next hop and start service if that link is idle. A hop whose links all
     died since the route was planned is re-planned from here. *)
  and enqueue_hop (msg : msg) t ~complete =
    let current = msg.at in
    let next = match msg.rest with [] -> assert false | n :: _ -> n in
    let out = out_links.(current) in
    let link = ref (-1) in
    for i = 0 to Array.length out - 1 do
      let e = out.(i) in
      if link_dst.(e) = next && alive.(e) && (!link < 0 || backlog.(e) < backlog.(!link))
      then link := e
    done;
    match !link with
    | -1 ->
      if not !faulted then
        raise
          (Simulation_error
             {
               tid = msg.tid;
               tag = transfers.(msg.tid).Program.tag;
               kind = No_route { src = current; dst = next };
             })
      else begin
        (* The planned hop rides a dead link: the stale route is discarded
           and the message re-planned over the surviving fabric. *)
        Obs.incr obs_reroutes;
        if trace_on then
          Trace.emit ~t (Trace.Rerouted { tid = msg.tid; node = current });
        replan msg t ~complete
      end
    | link ->
      (* backlog.(link) predicts when the link finishes everything accepted so
         far: service is FCFS and back-to-back, so the new message starts at
         max(backlog, now) and occupies the link for its full model hold
         (including α under Blocking_alpha — accounting only the serialization
         term let latency-bound traffic look free and pile onto one of two
         identical parallel links). *)
      let hold = hold_of link transfers.(msg.tid).Program.size in
      backlog.(link) <- Float.max backlog.(link) t +. hold;
      if trace_on then
        Trace.emit ~t
          (Trace.Enqueued
             {
               tid = msg.tid;
               link;
               node = current;
               depth = Queue.length queue.(link);
             });
      if obs_on then begin
        let depth = Queue.length queue.(link) in
        Obs.observe obs_queue_depth (float_of_int depth);
        Obs.observe_max obs_max_queue (float_of_int depth);
        Obs.observe_max obs_max_backlog (backlog.(link) -. t);
        Obs.trace "engine.enqueue"
          [
            ("link", Tacos_util.Json.Number (float_of_int link));
            ("now", Tacos_util.Json.Number t);
            ("depth", Tacos_util.Json.Number (float_of_int depth));
            ("backlog_seconds", Tacos_util.Json.Number (backlog.(link) -. t));
          ]
      end;
      if serving.(link) then Queue.push msg queue.(link)
      else start_service link msg t
  in
  let complete tid t =
    transfer_finish.(tid) <- t;
    if trace_on then Trace.emit ~t (Trace.Completed { tid });
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then begin
          ready_cause.(d) <- tid;
          Pq.push events t (Ready d)
        end)
      dependents.(tid)
  in
  let launch tid t =
    let tr = transfers.(tid) in
    if tr.Program.src = tr.Program.dst then complete tid t
    else begin
      let msg = { tid; at = tr.Program.src; rest = []; aborted = false; via = -1 } in
      replan msg t ~complete
    end
  in
  (* A timed fabric change. Death of a link aborts the message it was
     serializing (the un-transferred remainder is un-credited from the
     stats, so the dead link shows no activity past the fault time),
     re-plans it and everything queued behind it from their current nodes,
     and re-arms the link's serial so the stale [Link_free] is ignored.
     Degradation changes the α/β of *future* services (the committed one
     finishes at its negotiated rate); recovery restores the healthy
     parameters. All three invalidate the routing table. *)
  let apply_fault t = function
    | Link_dies { link; at = _ } ->
      if alive.(link) then begin
        alive.(link) <- false;
        faulted := true;
        routing := None;
        serial.(link) <- serial.(link) + 1;
        if trace_on then Trace.emit ~t (Trace.Fault { link; kind = "dies" });
        (* Satellite fix: a dead link must never win the least-backlogged
           parallel-link choice on its stale (low) backlog, and its
           predicted queue is void — it is filtered out of [enqueue_hop]'s
           candidates and its backlog zeroed for a potential recovery. *)
        backlog.(link) <- 0.;
        let displaced = ref [] in
        (match in_service.(link) with
        | Some msg ->
          Obs.incr obs_aborts;
          msg.aborted <- true;
          if trace_on then
            Trace.emit ~t (Trace.Service_aborted { tid = msg.tid; link });
          let s = service_start.(link) and e = service_end.(link) in
          let hold = e -. s in
          let fraction =
            if hold <= 0. then 0. else Float.max 0. (Float.min 1. ((t -. s) /. hold))
          in
          let size = transfers.(msg.tid).Program.size in
          (* Un-credit the un-transferred remainder and truncate the
             service interval at the fault time. *)
          link_bytes.(link) <- link_bytes.(link) -. (size *. (1. -. fraction));
          link_busy.(link) <- link_busy.(link) -. (e -. t);
          (match link_intervals.(link) with
          | (s0, _) :: tail -> link_intervals.(link) <- (s0, t) :: tail
          | [] -> ());
          displaced :=
            [ { tid = msg.tid; at = msg.at; rest = msg.rest; aborted = false; via = -1 } ]
        | None -> ());
        serving.(link) <- false;
        in_service.(link) <- None;
        Queue.iter (fun msg -> displaced := msg :: !displaced) queue.(link);
        Queue.clear queue.(link);
        (* Oldest first, so drained traffic re-queues in FCFS order. *)
        List.iter (fun msg -> replan msg t ~complete) (List.rev !displaced)
      end
    | Link_degrades { link; factor; at = _ } ->
      if alive.(link) then begin
        if trace_on then Trace.emit ~t (Trace.Fault { link; kind = "degrades" });
        degrade_factor.(link) <- degrade_factor.(link) *. factor;
        serialize.(link) <- base_serialize.(link) *. degrade_factor.(link);
        latency.(link) <- base_latency.(link) *. degrade_factor.(link);
        faulted := true;
        routing := None
      end
    | Link_recovers { link; at = _ } ->
      if not alive.(link) || degrade_factor.(link) <> 1. then begin
        if trace_on then Trace.emit ~t (Trace.Fault { link; kind = "recovers" });
        alive.(link) <- true;
        degrade_factor.(link) <- 1.;
        serialize.(link) <- base_serialize.(link);
        latency.(link) <- base_latency.(link);
        backlog.(link) <- 0.;
        routing := None
      end
  in
  (* Fault events enter the queue first: at equal timestamps a fault lands
     before same-time arrivals/frees, i.e. the fault window is inclusive of
     its own timestamp. *)
  List.iter (fun f -> Pq.push events (fault_time f) (Fault f)) faults;
  Array.iter
    (fun (tr : Program.transfer) ->
      if indeg.(tr.id) = 0 then Pq.push events 0. (Ready tr.id))
    transfers;
  let finish_time = ref 0. in
  let rec loop () =
    match Pq.pop events with
    | None -> ()
    | Some (t, ev) ->
      Obs.incr obs_events;
      (match ev with
      | Fault f ->
        (* A fault beyond the last transfer event must not stretch the
           reported finish time of an already-completed collective. *)
        Obs.incr obs_faults;
        apply_fault t f
      | Ready tid ->
        finish_time := Float.max !finish_time t;
        if trace_on then
          Trace.emit ~t
            (Trace.Deps_ready
               {
                 tid;
                 cause = (if ready_cause.(tid) >= 0 then Some ready_cause.(tid) else None);
               });
        launch tid t
      | Link_free (link, s) ->
        (* A stale serial is the ghost of a service aborted by a link death;
           it carries no state and must not stretch the finish time. *)
        if s = serial.(link) then begin
          finish_time := Float.max !finish_time t;
          if trace_on then (
            match in_service.(link) with
            | Some m -> Trace.emit ~t (Trace.Service_end { tid = m.tid; link })
            | None -> ());
          serving.(link) <- false;
          in_service.(link) <- None;
          match Queue.take_opt queue.(link) with
          | Some next_msg -> start_service link next_msg t
          | None -> ()
        end
      | Hop_arrived msg ->
        if not msg.aborted then begin
          finish_time := Float.max !finish_time t;
          match msg.rest with
          | [] -> assert false
          | [ last ] ->
            msg.at <- last;
            if trace_on then
              Trace.emit ~t
                (Trace.Arrived { tid = msg.tid; node = last; link = msg.via });
            complete msg.tid t
          | arrived :: rest ->
            msg.at <- arrived;
            msg.rest <- rest;
            if trace_on then
              Trace.emit ~t
                (Trace.Arrived { tid = msg.tid; node = arrived; link = msg.via });
            enqueue_hop msg t ~complete
        end);
      loop ()
  in
  loop ();
  (* Completion audit: with stranded messages, every unfinished transfer
     must be explained by a stranding (directly, or through a dependency on
     a stranded transfer). Anything else is a structural bug surfaced as a
     typed error rather than a silent partial report. *)
  let unfinished = ref [] in
  Array.iteri (fun tid f -> if f = infinity then unfinished := tid :: !unfinished)
    transfer_finish;
  if !unfinished <> [] then begin
    let excused = Array.make nt false in
    List.iter (fun (s : stranded) -> excused.(s.tid) <- true) !stranded;
    Array.iter
      (fun (tr : Program.transfer) ->
        if (not excused.(tr.id)) && List.exists (fun d -> excused.(d)) tr.deps then
          excused.(tr.id) <- true)
      transfers;
    match List.find_opt (fun tid -> not excused.(tid)) (List.rev !unfinished) with
    | Some tid ->
      raise
        (Simulation_error
           {
             tid;
             tag = transfers.(tid).Program.tag;
             kind = Never_completed { remaining = List.length !unfinished };
           })
    | None -> ()
  end;
  {
    finish_time = !finish_time;
    transfer_finish;
    link_bytes;
    link_busy;
    link_intervals = Array.map List.rev link_intervals;
    stranded = List.rev !stranded;
  }

let utilization_timeline topo report ~bins =
  Tacos_util.Timeline.utilization ~bins ~span:report.finish_time
    ~capacity:(float_of_int (Topology.num_links topo))
    (fun f -> Array.iter (List.iter (fun (s, e) -> f s e)) report.link_intervals)

let average_utilization topo report =
  if report.finish_time <= 0. then 0.
  else begin
    let total = Array.fold_left ( +. ) 0. report.link_busy in
    total /. (float_of_int (Topology.num_links topo) *. report.finish_time)
  end
