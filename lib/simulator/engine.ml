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

(* Events are ints: the kind in the low two bits, the payload above. A
   fault's payload is its index in the timeline, a readiness event's its
   transfer id, and the other two name a message in flight. *)
let ev_fault = 0
let ev_ready = 1
let ev_free = 2 (* the message's link finished serializing it *)
let ev_arrive = 3 (* the message landed at the next node on its route *)
let[@inline] event kind payload = (payload lsl 2) lor kind

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
      | Link_degrades { factor; _ } when not (Float.is_finite factor) ->
        (* α = 0 or β = 0 times an infinite factor is NaN. *)
        invalid_arg "Engine.run: degradation factor is not finite"
      | _ -> ())
    faults

(* Time [link] is occupied by one message of [size] bytes — the unit of
   both FCFS service and backlog accounting, so the two can never drift.
   A closed top-level function, so it inlines and its result stays
   unboxed. *)
let[@inline] hold_of model ~serialize ~latency link size =
  match model with
  | Pipelined_alpha -> serialize.(link) *. size
  | Blocking_alpha -> latency.(link) +. (serialize.(link) *. size)

(* The first [len] entries of a full array, in one twice as long. *)
let grow a len fill =
  let b = Array.make (max 16 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

let run ?(model = Pipelined_alpha) ?(faults = []) topo program =
  let transfers = Program.transfers program in
  let nt = Array.length transfers in
  (match Program.first_forward_dep program with
  | None -> ()
  | Some (tid, dep) ->
    raise
      (Simulation_error { tid; tag = transfers.(tid).Program.tag; kind = Cyclic_program { dep } }));
  validate_faults topo faults;
  (* Routes are costed at the mean transfer size. *)
  let routing_size =
    if nt = 0 then 1. else Float.max 1. (Program.total_bytes program /. float_of_int nt)
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
  (* Per-link FCFS server state: the message in service (-1 when idle) and
     a FIFO of waiting messages, threaded through [msg_next]. *)
  let in_service = Array.make m (-1) in
  let queue_head = Array.make m (-1) and queue_tail = Array.make m (-1) in
  let queue_len = Array.make m 0 in
  let service_start = Array.make m 0. and service_end = Array.make m 0. in
  let backlog = Array.make m 0. in
  (* Stats. The service log keeps one (link, start, end) entry per service
     in start order, read into the report's per-link lists at the end;
     [last_service.(link)] is the link's newest entry, which a death
     truncates. *)
  let link_bytes = Array.make m 0. in
  let link_busy = Array.make m 0. in
  let last_service = Array.make m (-1) in
  let log_link = ref (Array.make (max 16 nt) 0) in
  let log_start = ref (Array.make (max 16 nt) 0.) in
  let log_end = ref (Array.make (max 16 nt) 0.) in
  let services = ref 0 in
  let transfer_finish = Array.make nt infinity in
  let stranded = ref [] in
  let size = Array.map (fun (tr : Program.transfer) -> tr.size) transfers in
  (* Dependency bookkeeping: transfer [d]'s dependents are
     [dependents.(first.(d)) .. dependents.(first.(d + 1) - 1)], newest
     first — the order they are released in. *)
  let indeg = Array.make nt 0 in
  let first = Array.make (nt + 1) 0 in
  let rec count = function
    | [] -> ()
    | d :: rest ->
      first.(d + 1) <- first.(d + 1) + 1;
      count rest
  in
  for tid = 0 to nt - 1 do
    count transfers.(tid).Program.deps
  done;
  for d = 1 to nt do
    first.(d) <- first.(d) + first.(d - 1)
  done;
  let dependents = Array.make first.(nt) 0 in
  let fill = Array.sub first 1 nt in
  let rec register tid = function
    | [] -> ()
    | d :: rest ->
      indeg.(tid) <- indeg.(tid) + 1;
      fill.(d) <- fill.(d) - 1;
      dependents.(fill.(d)) <- tid;
      register tid rest
  in
  for tid = 0 to nt - 1 do
    register tid transfers.(tid).Program.deps
  done;
  (* For the lifecycle trace: the dependency whose completion made each
     transfer ready (-1 for roots) — the binding constraint the
     critical-path analyzer follows across transfers. *)
  let ready_cause = Array.make nt (-1) in
  (* Messages in flight. A message is one transfer's trip from the node it
     sits at; its planned hops are [hops.(msg_hop.(i)) ..
     hops.(msg_end.(i) - 1)], the next one first. A death that cuts a
     service short marks that message aborted (its pending events are
     ignored) and continues the trip as a new message, so each transfer and
     each death make at most one. *)
  let faults = Array.of_list faults in
  let deaths =
    Array.fold_left (fun n f -> match f with Link_dies _ -> n + 1 | _ -> n) 0 faults
  in
  let max_msgs = nt + deaths in
  let msg_tid = Array.make max_msgs 0 and msg_at = Array.make max_msgs 0 in
  let msg_via = Array.make max_msgs (-1) (* link ridden into the pending arrival *) in
  let msg_next = Array.make max_msgs (-1) and msg_aborted = Array.make max_msgs false in
  let msg_hop = Array.make max_msgs 0 and msg_end = Array.make max_msgs 0 in
  let msgs = ref 0 in
  let hops = ref (Array.make (max 16 nt) 0) and nhops = ref 0 in
  let events = Pq.create () in
  (* The time of the event being handled, written by [Pq.pop]. *)
  let now = [| 0. |] in
  (* Raised by [if t > finish_time.(0)]: it starts at +0. and event times
     are never NaN, so this is [Float.max]. *)
  let finish_time = [| 0. |] in
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
  let new_msg tid at =
    let i = !msgs in
    msgs := i + 1;
    msg_tid.(i) <- tid;
    msg_at.(i) <- at;
    i
  in
  let no_route msg ~src ~dst =
    let tid = msg_tid.(msg) in
    Simulation_error { tid; tag = transfers.(tid).Program.tag; kind = No_route { src; dst } }
  in
  let start_service link msg =
    let t = now.(0) in
    let tid = msg_tid.(msg) in
    in_service.(link) <- msg;
    msg_via.(msg) <- link;
    if trace_on then Trace.emit ~t (Trace.Service_start { tid; link });
    let hold = hold_of model ~serialize ~latency link size.(tid) in
    let arrive =
      match model with
      | Pipelined_alpha -> t +. hold +. latency.(link)
      | Blocking_alpha -> t +. hold
    in
    service_start.(link) <- t;
    service_end.(link) <- t +. hold;
    link_bytes.(link) <- link_bytes.(link) +. size.(tid);
    link_busy.(link) <- link_busy.(link) +. hold;
    let i = !services in
    if i = Array.length !log_link then begin
      log_link := grow !log_link i 0;
      log_start := grow !log_start i 0.;
      log_end := grow !log_end i 0.
    end;
    !log_link.(i) <- link;
    !log_start.(i) <- t;
    !log_end.(i) <- t +. hold;
    last_service.(link) <- i;
    services := i + 1;
    Pq.push events (t +. hold) (event ev_free msg);
    Pq.push events arrive (event ev_arrive msg)
  in
  let strand msg =
    let t = now.(0) and tid = msg_tid.(msg) in
    let dst = transfers.(tid).Program.dst in
    Obs.incr obs_stranded;
    if trace_on then Trace.emit ~t (Trace.Stranded { tid; node = msg_at.(msg); dst });
    stranded :=
      { tid; tag = transfers.(tid).Program.tag; at_npu = msg_at.(msg); dst; time = t }
      :: !stranded
  in
  let complete tid =
    let t = now.(0) in
    transfer_finish.(tid) <- t;
    if trace_on then Trace.emit ~t (Trace.Completed { tid });
    for i = first.(tid) to first.(tid + 1) - 1 do
      let d = dependents.(i) in
      indeg.(d) <- indeg.(d) - 1;
      if indeg.(d) = 0 then begin
        ready_cause.(d) <- tid;
        Pq.push events t (event ev_ready d)
      end
    done
  in
  (* Plan (or re-plan) [msg]'s remaining hops from the node it sits at, over
     the surviving fabric. Mutually recursive with [enqueue_hop]: a replan
     immediately enqueues the first hop of the fresh route. *)
  let rec replan msg =
    let at = msg_at.(msg) and dst = transfers.(msg_tid.(msg)).Program.dst in
    if at = dst then complete msg_tid.(msg)
    else begin
      let table = current_routing () in
      if Routing.reachable table ~src:at ~dst then begin
        msg_hop.(msg) <- !nhops;
        let v = ref at in
        while !v <> dst do
          v := Routing.next_hop table ~src:!v ~dst;
          if !nhops = Array.length !hops then hops := grow !hops !nhops 0;
          !hops.(!nhops) <- !v;
          incr nhops
        done;
        msg_end.(msg) <- !nhops;
        enqueue_hop msg
      end
      else if not !faulted then raise (no_route msg ~src:at ~dst)
      else strand msg
    end
  (* Hand a message to the least-backlogged *live* parallel link towards its
     next hop and start service if that link is idle. A hop whose links all
     died since the route was planned is re-planned from here. *)
  and enqueue_hop msg =
    let t = now.(0) in
    let current = msg_at.(msg) in
    let next = !hops.(msg_hop.(msg)) in
    let out = out_links.(current) in
    let link = ref (-1) in
    for i = 0 to Array.length out - 1 do
      let e = out.(i) in
      if link_dst.(e) = next && alive.(e) && (!link < 0 || backlog.(e) < backlog.(!link))
      then link := e
    done;
    let link = !link in
    if link < 0 then begin
      if not !faulted then raise (no_route msg ~src:current ~dst:next);
      (* The planned hop rides a dead link: the stale route is discarded
         and the message re-planned over the surviving fabric. *)
      Obs.incr obs_reroutes;
      if trace_on then Trace.emit ~t (Trace.Rerouted { tid = msg_tid.(msg); node = current });
      replan msg
    end
    else begin
      (* backlog.(link) predicts when the link finishes everything accepted so
         far: service is FCFS and back-to-back, so the new message starts at
         max(backlog, now) and occupies the link for its full model hold
         (including α under Blocking_alpha — accounting only the serialization
         term let latency-bound traffic look free and pile onto one of two
         identical parallel links). *)
      let hold = hold_of model ~serialize ~latency link size.(msg_tid.(msg)) in
      backlog.(link) <- Float.max backlog.(link) t +. hold;
      let depth = queue_len.(link) in
      if trace_on then
        Trace.emit ~t (Trace.Enqueued { tid = msg_tid.(msg); link; node = current; depth });
      if obs_on then begin
        Obs.observe obs_queue_depth (float_of_int depth);
        Obs.observe_max obs_max_queue (float_of_int depth);
        Obs.observe_max obs_max_backlog (backlog.(link) -. t)
      end;
      if in_service.(link) < 0 then start_service link msg
      else begin
        msg_next.(msg) <- -1;
        if queue_tail.(link) < 0 then queue_head.(link) <- msg
        else msg_next.(queue_tail.(link)) <- msg;
        queue_tail.(link) <- msg;
        queue_len.(link) <- depth + 1
      end
    end
  in
  let launch tid =
    let tr = transfers.(tid) in
    if tr.Program.src = tr.Program.dst then complete tid
    else replan (new_msg tid tr.Program.src)
  in
  (* A timed fabric change. Death of a link aborts the message it was
     serializing (the un-transferred remainder is un-credited from the
     stats, so the dead link shows no activity past the fault time), and
     re-plans it and everything queued behind it from their current nodes.
     Degradation changes the α/β of *future* services (the committed one
     finishes at its negotiated rate); recovery restores the healthy
     parameters. All three invalidate the routing table. *)
  let apply_fault i =
    let t = now.(0) in
    match faults.(i) with
    | Link_dies { link; at = _ } ->
      if alive.(link) then begin
        alive.(link) <- false;
        faulted := true;
        routing := None;
        if trace_on then Trace.emit ~t (Trace.Fault { link; kind = "dies" });
        (* A dead link must never win the least-backlogged parallel-link
           choice on its stale (low) backlog, and its predicted queue is
           void — it is filtered out of [enqueue_hop]'s candidates and its
           backlog zeroed for a potential recovery. *)
        backlog.(link) <- 0.;
        let displaced = ref [] in
        let msg = in_service.(link) in
        if msg >= 0 then begin
          let tid = msg_tid.(msg) in
          Obs.incr obs_aborts;
          msg_aborted.(msg) <- true;
          if trace_on then Trace.emit ~t (Trace.Service_aborted { tid; link });
          let s = service_start.(link) and e = service_end.(link) in
          let hold = e -. s in
          let fraction =
            if hold <= 0. then 0. else Float.max 0. (Float.min 1. ((t -. s) /. hold))
          in
          (* Un-credit the un-transferred remainder and truncate the
             service interval at the fault time. *)
          link_bytes.(link) <- link_bytes.(link) -. (size.(tid) *. (1. -. fraction));
          link_busy.(link) <- link_busy.(link) -. (e -. t);
          !log_end.(last_service.(link)) <- t;
          displaced := [ new_msg tid msg_at.(msg) ]
        end;
        in_service.(link) <- -1;
        let rec drain msg =
          if msg >= 0 then begin
            displaced := msg :: !displaced;
            drain msg_next.(msg)
          end
        in
        drain queue_head.(link);
        queue_head.(link) <- -1;
        queue_tail.(link) <- -1;
        queue_len.(link) <- 0;
        (* Oldest first, so drained traffic re-queues in FCFS order. *)
        List.iter replan (List.rev !displaced)
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
  Array.iteri (fun i f -> Pq.push events (fault_time f) (event ev_fault i)) faults;
  for tid = 0 to nt - 1 do
    if indeg.(tid) = 0 then Pq.push events 0. (event ev_ready tid)
  done;
  while not (Pq.is_empty events) do
    let ev = Pq.pop events now in
    let t = now.(0) and payload = ev lsr 2 in
    Obs.incr obs_events;
    let kind = ev land 3 in
    if kind = ev_fault then begin
      (* A fault beyond the last transfer event must not stretch the
         reported finish time of an already-completed collective. *)
      Obs.incr obs_faults;
      apply_fault payload
    end
    else if kind = ev_ready then begin
      if t > finish_time.(0) then finish_time.(0) <- t;
      if trace_on then
        Trace.emit ~t
          (Trace.Deps_ready
             {
               tid = payload;
               cause = (if ready_cause.(payload) >= 0 then Some ready_cause.(payload) else None);
             });
      launch payload
    end
    (* The events of an aborted message are the ghosts of a service a link
       death cut short: they carry no state and must not stretch the finish
       time. *)
    else if not msg_aborted.(payload) then begin
      if t > finish_time.(0) then finish_time.(0) <- t;
      let msg = payload and tid = msg_tid.(payload) in
      if kind = ev_free then begin
        let link = msg_via.(msg) in
        if trace_on then Trace.emit ~t (Trace.Service_end { tid; link });
        let next = queue_head.(link) in
        if next < 0 then in_service.(link) <- -1
        else begin
          queue_head.(link) <- msg_next.(next);
          if msg_next.(next) < 0 then queue_tail.(link) <- -1;
          queue_len.(link) <- queue_len.(link) - 1;
          start_service link next
        end
      end
      else begin
        let hop = msg_hop.(msg) in
        let node = !hops.(hop) in
        msg_at.(msg) <- node;
        if trace_on then Trace.emit ~t (Trace.Arrived { tid; node; link = msg_via.(msg) });
        if hop + 1 = msg_end.(msg) then complete tid
        else begin
          msg_hop.(msg) <- hop + 1;
          enqueue_hop msg
        end
      end
    end
  done;
  (* Completion audit: with stranded messages, every unfinished transfer
     must be explained by a stranding (directly, or through a dependency on
     a stranded transfer). Anything else is a structural bug surfaced as a
     typed error rather than a silent partial report. *)
  let unfinished = ref [] in
  for tid = 0 to nt - 1 do
    if transfer_finish.(tid) = infinity then unfinished := tid :: !unfinished
  done;
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
  let link_intervals = Array.make m [] in
  for i = !services - 1 downto 0 do
    let l = !log_link.(i) in
    link_intervals.(l) <- (!log_start.(i), !log_end.(i)) :: link_intervals.(l)
  done;
  {
    finish_time = finish_time.(0);
    transfer_finish;
    link_bytes;
    link_busy;
    link_intervals;
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
