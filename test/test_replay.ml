(* Equivalence pins for the replay path: the order the event queue pops in,
   the routes Dijkstra picks, the program [Program.of_schedule] builds and
   the report [Engine.run] returns.

   The reference implementations below are the straightforward versions of
   the production code: a [Set]-ordered Dijkstra and a [Hashtbl]-indexed
   [of_schedule]. They stay here as oracles for the optimized code. The
   golden digests hash every float with [%h] (exact hex) rather than
   [Marshal], whose output follows how floats are shared in the heap and so
   can change while every value stays the same. *)

open Tacos_topology
open Tacos_collective
open Tacos_sim
module Pq = Tacos_util.Pq
module Rng = Tacos_util.Rng
module Trace = Tacos_obs.Trace
module Synth = Tacos.Synthesizer

let bits = Int64.bits_of_float

(* --- Pq against a stable sort ---------------------------------------------- *)

(* Keys are offsets from the last popped key, in halves, so pushes land at,
   above and below it and many keys tie; [Push_neg_zero] ties -0. with 0.
   and checks that a popped key keeps its sign bit. Half the lists are
   longer, up to 2,000 ops, with offsets up to ±16: more distinct keys are
   then pending than the queue keeps runs open, so a key's run closes
   while it still holds entries and a later push at that key opens another
   run behind it. A push at offset 0 lands on the key just popped, whose
   run may have drained. *)
type pq_op = Pop | Push of int | Push_neg_zero

let pq_op_to_string = function
  | Pop -> "pop"
  | Push d -> Printf.sprintf "push %+d" d
  | Push_neg_zero -> "push -0."

let gen_pq_ops =
  QCheck.Gen.(
    let op spread =
      frequency
        [
          (4, return Pop);
          (3, return (Push 0));
          (4, map (fun d -> Push d) (int_range (-spread) spread));
          (1, return Push_neg_zero);
        ]
    in
    oneof
      [ list_size (int_range 0 400) (op 4); list_size (int_range 0 2000) (op 16) ])

(* The model: pending entries in a map ordered by (key, insertion
   number), so the next pop is its least binding: the least key, ties in
   insertion order. Keys compare with [<], as the heap does, so -0. and 0.
   tie; each binding keeps the key as pushed. *)
module Pending = Map.Make (struct
  type t = float * int

  let compare (k, i) (k', i') =
    if k < k' then -1 else if k' < k then 1 else compare (i : int) i'
end)

let prop_pq_matches_stable_sort =
  QCheck.Test.make ~name:"pops in (key, insertion) order" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pq_op_to_string ops))
        gen_pq_ops)
    (fun ops ->
      let q = Pq.create () in
      let pending = ref Pending.empty and size = ref 0 in
      let last = ref 0. and next = ref 0 in
      let key = [| nan |] in
      let pop () =
        match Pending.min_binding_opt !pending with
        | None ->
          if not (Pq.is_empty q) then QCheck.Test.fail_report "pop mismatch: not empty"
        | Some (((k, v) as least), ()) ->
          pending := Pending.remove least !pending;
          decr size;
          let v' = Pq.pop q key in
          if not (bits k = bits key.(0) && v = v') then QCheck.Test.fail_report "pop mismatch";
          last := key.(0)
      in
      let push key =
        Pq.push q key !next;
        pending := Pending.add (key, !next) () !pending;
        incr size;
        incr next
      in
      List.iter
        (fun op ->
          (match op with
          | Pop -> pop ()
          | Push d -> push (!last +. (0.5 *. float_of_int d))
          | Push_neg_zero -> push (-0.));
          if Pq.size q <> !size || Pq.is_empty q <> (!size = 0) then
            QCheck.Test.fail_report "size mismatch")
        ops;
      while not (Pq.is_empty q) do
        pop ()
      done;
      Pending.is_empty !pending)

(* --- Dijkstra against a Set-ordered oracle --------------------------------- *)

module Pair_set = Set.Make (struct
  type t = float * int

  let compare = compare
end)

(* Dijkstra popping (dist, node) pairs in [Set] order, relaxing [edges_of v]
   in list order with a strict improvement test; [relax] returns the
   neighbour and the edge's cost. Returns distances and, per node, the node
   it was last relaxed from. *)
let oracle_dijkstra n ~source ~edges_of ~relax =
  let dist = Array.make n infinity and via = Array.make n (-1) in
  dist.(source) <- 0.;
  let pq = ref (Pair_set.singleton (0., source)) in
  while not (Pair_set.is_empty !pq) do
    let ((d, v) as elt) = Pair_set.min_elt !pq in
    pq := Pair_set.remove elt !pq;
    if d <= dist.(v) then
      List.iter
        (fun e ->
          let u, cost = relax e in
          let nd = d +. cost in
          if nd < dist.(u) then begin
            dist.(u) <- nd;
            via.(u) <- v;
            pq := Pair_set.add (nd, u) !pq
          end)
        (edges_of v)
  done;
  (dist, via)

(* Random fabrics with parallel links, some one-way links, mixed α and β
   from small sets (so many paths tie in cost), and no guarantee of
   connectivity. *)
let random_topology rng =
  let n = 2 + Rng.int rng 8 in
  let t = Topology.create n in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let link () =
    Link.make ~alpha:(pick [| 0.; 0.5; 1.; 1. |]) ~beta:(pick [| 0.; 0.25; 1.; 1. |])
  in
  if Rng.int rng 2 = 0 then
    for v = 0 to n - 1 do
      Topology.add_bidir t v ((v + 1) mod n) (link ())
    done;
  for _ = 1 to Rng.int rng (3 * n) do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      if Rng.int rng 3 = 0 then ignore (Topology.add_link t ~src:a ~dst:b (link ()))
      else Topology.add_bidir t a b (link ());
      (* A parallel twin, sometimes with a different cost. *)
      if Rng.int rng 4 = 0 then ignore (Topology.add_link t ~src:a ~dst:b (link ()))
    end
  done;
  t

let oracle_path via ~src ~dst =
  let rec go v acc = if v = dst then List.rev (v :: acc) else go via.(v) (v :: acc) in
  go src []

let test_routing_matches_oracle () =
  let rng = Rng.create 16 in
  for _ = 1 to 300 do
    let topo = random_topology rng in
    let n = Topology.num_npus topo in
    let size = [| 0.; 1.; 2.; 4. |].(Rng.int rng 4) in
    let table = Routing.build_partial topo ~size in
    for dst = 0 to n - 1 do
      (* Towards [dst] over reversed edges, as the router builds it. *)
      let dist, via =
        oracle_dijkstra n ~source:dst ~edges_of:(Topology.in_edges topo)
          ~relax:(fun (e : Topology.edge) -> (e.src, Link.cost e.link size))
      in
      for src = 0 to n - 1 do
        let reachable = dist.(src) < infinity in
        Alcotest.(check bool) "reachable" reachable (Routing.reachable table ~src ~dst);
        Alcotest.(check int64) "path cost bits" (bits dist.(src))
          (bits (Routing.path_cost table ~src ~dst));
        Alcotest.(check (option (list int)))
          (Printf.sprintf "route %d->%d" src dst)
          (if reachable then Some (oracle_path via ~src ~dst) else None)
          (Routing.path_opt table ~src ~dst)
      done
    done
  done

let test_diameter_latency_matches_oracle () =
  let rng = Rng.create 17 in
  for _ = 1 to 300 do
    let topo = random_topology rng in
    let n = Topology.num_npus topo in
    let expected =
      let worst = ref 0. in
      for src = 0 to n - 1 do
        let dist, _ =
          oracle_dijkstra n ~source:src ~edges_of:(Topology.out_edges topo)
            ~relax:(fun (e : Topology.edge) -> (e.dst, e.link.Link.alpha))
        in
        Array.iter (fun d -> worst := Float.max !worst d) dist
      done;
      if !worst = infinity then None else Some !worst
    in
    match (expected, Topology.diameter_latency topo) with
    | Some d, d' -> Alcotest.(check int64) "diameter bits" (bits d) (bits d')
    | None, d -> Alcotest.failf "expected Failure on a disconnected fabric, got %h" d
    | exception Failure _ when expected = None -> ()
  done

(* --- of_schedule against a Hashtbl-indexed oracle -------------------------- *)

let oracle_of_schedule ?(tag_of = fun (s : Schedule.send) -> Printf.sprintf "chunk%d" s.chunk)
    ~chunk_size (sched : Schedule.t) =
  let b = Program.builder () in
  let delivered = Hashtbl.create 64 in
  List.iter
    (fun (s : Schedule.send) ->
      let deps = Option.value ~default:[] (Hashtbl.find_opt delivered (s.src, s.chunk)) in
      let id = Program.add b ~tag:(tag_of s) ~deps ~src:s.src ~dst:s.dst ~size:chunk_size () in
      let at_dst = Option.value ~default:[] (Hashtbl.find_opt delivered (s.dst, s.chunk)) in
      Hashtbl.replace delivered (s.dst, s.chunk) (id :: at_dst))
    (Schedule.sends sched);
  Program.build b

let transfer_rows p =
  Array.to_list
    (Array.map
       (fun (tr : Program.transfer) ->
         Printf.sprintf "%d %s %d->%d %h [%s]" tr.id tr.tag tr.src tr.dst tr.size
           (String.concat "," (List.map string_of_int tr.deps)))
       (Program.transfers p))

let random_schedule rng =
  let npus = 1 + Rng.int rng 9 and chunks = 1 + Rng.int rng 12 in
  let sends =
    List.init (Rng.int rng 120) (fun _ ->
        let start = float_of_int (Rng.int rng 20) in
        {
          Schedule.chunk = Rng.int rng chunks;
          edge = Rng.int rng 30;
          src = Rng.int rng npus;
          dst = Rng.int rng npus;
          start;
          finish = start +. float_of_int (Rng.int rng 3);
        })
  in
  Schedule.make sends

let test_of_schedule_matches_oracle () =
  let rng = Rng.create 18 in
  let phase (s : Schedule.send) = if s.start < 10. then "early" else "late" in
  for _ = 1 to 300 do
    let sched = random_schedule rng in
    let chunk_size = float_of_int (Rng.int rng 5) in
    Alcotest.(check (list string)) "default tags"
      (transfer_rows (oracle_of_schedule ~chunk_size sched))
      (transfer_rows (Program.of_schedule ~chunk_size sched));
    Alcotest.(check (list string)) "custom tags"
      (transfer_rows (oracle_of_schedule ~tag_of:phase ~chunk_size sched))
      (transfer_rows (Program.of_schedule ~tag_of:phase ~chunk_size sched))
  done

(* Every field of a program and of its report, floats in exact hex. *)
let digest program (r : Engine.report) =
  let b = Buffer.create 65536 in
  List.iter (fun row -> Printf.bprintf b "%s\n" row) (transfer_rows program);
  let f x = Printf.bprintf b "%h;" x in
  f r.Engine.finish_time;
  Array.iter f r.Engine.transfer_finish;
  Array.iter f r.Engine.link_bytes;
  Array.iter f r.Engine.link_busy;
  Array.iteri
    (fun i l ->
      Printf.bprintf b "\nL%d:" i;
      List.iter (fun (s, e) -> f s; f e) l)
    r.Engine.link_intervals;
  List.iter
    (fun (s : Engine.stranded) ->
      Printf.bprintf b "\nS%d,%s,%d,%d," s.tid s.tag s.at_npu s.dst;
      f s.time)
    r.Engine.stranded;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- Engine.run against the variant-event loop -------------------------------- *)

(* The event loop [Engine.run] had before it was int-coded: one variant per
   event kind, a record per message in flight, a [Queue] per link and a
   (time, insertion)-ordered [Set] as the event queue. Kept verbatim except
   for the [Obs] metrics, which no report depends on, and the routing-size
   option, which [Engine.run] no longer takes. *)
module Variant_engine = struct
  open Engine

  type msg = {
    tid : int;
    mutable at : int;
    mutable rest : int list;
    mutable aborted : bool;
    mutable via : int;
  }

  type event =
    | Ready of int
    | Link_free of int * int
    | Hop_arrived of msg
    | Fault of fault_event

  module Q = Set.Make (struct
    type t = float * int * event

    let compare (k, s, _) (k', s', _) =
      if k < k' then -1 else if k' < k then 1 else compare (s : int) s'
  end)

  let run ?(model = Pipelined_alpha) ?(faults = []) topo program =
    let transfers = Program.transfers program in
    let nt = Array.length transfers in
    (match Program.first_forward_dep program with
    | None -> ()
    | Some (tid, dep) ->
      raise
        (Simulation_error
           { tid; tag = transfers.(tid).Program.tag; kind = Cyclic_program { dep } }));
    let routing_size =
      if nt = 0 then 1. else Float.max 1. (Program.total_bytes program /. float_of_int nt)
    in
    let m = Topology.num_links topo in
    let base_serialize = Array.make m 0. and base_latency = Array.make m 0. in
    let link_dst = Array.make m 0 in
    List.iter
      (fun (e : Topology.edge) ->
        base_serialize.(e.id) <- Link.cost e.link 1. -. Link.cost e.link 0.;
        base_latency.(e.id) <- Link.cost e.link 0.;
        link_dst.(e.id) <- e.dst)
      (Topology.edges topo);
    let out_links =
      Array.init (Topology.num_npus topo) (fun v ->
          Array.of_list (List.map (fun (e : Topology.edge) -> e.id) (Topology.out_edges topo v)))
    in
    let serialize = Array.copy base_serialize and latency = Array.copy base_latency in
    let alive = Array.make m true and degrade_factor = Array.make m 1. in
    let queue = Array.init m (fun _ -> Queue.create ()) in
    let serving = Array.make m false in
    let in_service : msg option array = Array.make m None in
    let service_start = Array.make m 0. and service_end = Array.make m 0. in
    let serial = Array.make m 0 and backlog = Array.make m 0. in
    let link_bytes = Array.make m 0. and link_busy = Array.make m 0. in
    let link_intervals = Array.make m [] in
    let transfer_finish = Array.make nt infinity in
    let stranded = ref [] in
    let indeg = Array.make nt 0 and dependents = Array.make nt [] in
    let ready_cause = Array.make nt (-1) in
    Array.iter
      (fun (tr : Program.transfer) ->
        indeg.(tr.id) <- List.length tr.deps;
        List.iter (fun d -> dependents.(d) <- tr.id :: dependents.(d)) tr.deps)
      transfers;
    let events = ref Q.empty and next_seq = ref 0 in
    let push key ev =
      events := Q.add (key, !next_seq, ev) !events;
      incr next_seq
    in
    let trace_on = Trace.enabled () in
    let routing = ref None and faulted = ref false in
    let current_routing () =
      match !routing with
      | Some t -> t
      | None ->
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
      push (t +. hold) (Link_free (link, serial.(link)));
      push arrive (Hop_arrived msg)
    in
    let strand (msg : msg) t =
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
    let rec replan (msg : msg) t ~complete =
      let dst = transfers.(msg.tid).Program.dst in
      if msg.at = dst then complete msg.tid t
      else
        match Routing.path_opt (current_routing ()) ~src:msg.at ~dst with
        | Some (_ :: (_ :: _ as rest)) ->
          msg.rest <- rest;
          enqueue_hop msg t ~complete
        | Some _ | None ->
          if not !faulted then
            raise
              (Simulation_error
                 {
                   tid = msg.tid;
                   tag = transfers.(msg.tid).Program.tag;
                   kind = No_route { src = msg.at; dst };
                 })
          else strand msg t
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
          if trace_on then Trace.emit ~t (Trace.Rerouted { tid = msg.tid; node = current });
          replan msg t ~complete
        end
      | link ->
        let hold = hold_of link transfers.(msg.tid).Program.size in
        backlog.(link) <- Float.max backlog.(link) t +. hold;
        if trace_on then
          Trace.emit ~t
            (Trace.Enqueued
               { tid = msg.tid; link; node = current; depth = Queue.length queue.(link) });
        if serving.(link) then Queue.push msg queue.(link) else start_service link msg t
    in
    let complete tid t =
      transfer_finish.(tid) <- t;
      if trace_on then Trace.emit ~t (Trace.Completed { tid });
      List.iter
        (fun d ->
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then begin
            ready_cause.(d) <- tid;
            push t (Ready d)
          end)
        dependents.(tid)
    in
    let launch tid t =
      let tr = transfers.(tid) in
      if tr.Program.src = tr.Program.dst then complete tid t
      else replan { tid; at = tr.Program.src; rest = []; aborted = false; via = -1 } t ~complete
    in
    let apply_fault t = function
      | Link_dies { link; at = _ } ->
        if alive.(link) then begin
          alive.(link) <- false;
          faulted := true;
          routing := None;
          serial.(link) <- serial.(link) + 1;
          if trace_on then Trace.emit ~t (Trace.Fault { link; kind = "dies" });
          backlog.(link) <- 0.;
          let displaced = ref [] in
          (match in_service.(link) with
          | Some msg ->
            msg.aborted <- true;
            if trace_on then Trace.emit ~t (Trace.Service_aborted { tid = msg.tid; link });
            let s = service_start.(link) and e = service_end.(link) in
            let hold = e -. s in
            let fraction =
              if hold <= 0. then 0. else Float.max 0. (Float.min 1. ((t -. s) /. hold))
            in
            let size = transfers.(msg.tid).Program.size in
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
    List.iter (fun f -> push (fault_time f) (Fault f)) faults;
    Array.iter
      (fun (tr : Program.transfer) -> if indeg.(tr.id) = 0 then push 0. (Ready tr.id))
      transfers;
    let finish_time = ref 0. in
    while not (Q.is_empty !events) do
      let ((t, _, ev) as least) = Q.min_elt !events in
      events := Q.remove least !events;
      match ev with
      | Fault f -> apply_fault t f
      | Ready tid ->
        finish_time := Float.max !finish_time t;
        if trace_on then
          Trace.emit ~t
            (Trace.Deps_ready
               { tid; cause = (if ready_cause.(tid) >= 0 then Some ready_cause.(tid) else None) });
        launch tid t
      | Link_free (link, s) ->
        if s = serial.(link) then begin
          finish_time := Float.max !finish_time t;
          (if trace_on then
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
              Trace.emit ~t (Trace.Arrived { tid = msg.tid; node = last; link = msg.via });
            complete msg.tid t
          | arrived :: rest ->
            msg.at <- arrived;
            msg.rest <- rest;
            if trace_on then
              Trace.emit ~t (Trace.Arrived { tid = msg.tid; node = arrived; link = msg.via });
            enqueue_hop msg t ~complete
        end
    done;
    let unfinished = ref [] in
    Array.iteri
      (fun tid f -> if f = infinity then unfinished := tid :: !unfinished)
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
end

(* A random program over [n] NPUs: pairs that are often not adjacent (so
   routes take several hops), [src = dst] barriers, sizes from a small set
   (so services tie), and dependencies on earlier transfers. In one
   program in twelve a dependency may also name a later transfer, which
   makes the program cyclic. *)
let random_program rng n =
  let count = Rng.int rng 40 in
  let cyclic = count > 1 && Rng.int rng 12 = 0 in
  Program.import
    (Array.init count (fun id ->
         let src = Rng.int rng n in
         let dst = if Rng.int rng 5 = 0 then src else Rng.int rng n in
         let deps =
           List.init (Rng.int rng 3) (fun _ ->
               if cyclic && Rng.int rng 4 = 0 then Rng.int rng count
               else if id = 0 then -1
               else Rng.int rng id)
           |> List.filter (fun d -> d >= 0)
         in
         (Printf.sprintf "t%d" (id mod 3), src, dst, [| 0.; 1.; 2.; 4. |].(Rng.int rng 4), deps)))

(* A fault timeline over [m] links: deaths, degradations and recoveries at
   times from a small grid that starts at 0, so faults tie with each other
   and with transfer events. *)
let random_faults rng m =
  if m = 0 then []
  else
    List.init (Rng.int rng 6) (fun _ ->
        let link = Rng.int rng m and at = 0.5 *. float_of_int (Rng.int rng 12) in
        match Rng.int rng 3 with
        | 0 -> Engine.Link_dies { link; at }
        | 1 -> Engine.Link_degrades { link; factor = [| 1.; 2.; 3. |].(Rng.int rng 3); at }
        | _ -> Engine.Link_recovers { link; at })

(* What a run shows: its report, or the [Simulation_error] it raised. *)
let outcome run =
  match run () with
  | report -> Ok report
  | exception Engine.Simulation_error { tid; tag; kind } -> Error (tid, tag, kind)

let trace_of run =
  Trace.reset ();
  Trace.enable ();
  let result = Fun.protect ~finally:Trace.disable (fun () -> outcome run) in
  (result, (Trace.dump ()).Trace.events)

let prop_engine_matches_variant_loop =
  QCheck.Test.make ~name:"Engine.run matches the variant loop" ~count:1500
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let topo = random_topology rng in
      let n = Topology.num_npus topo in
      let program = random_program rng n in
      let faults = random_faults rng (Topology.num_links topo) in
      let model = if Rng.int rng 2 = 0 then Engine.Pipelined_alpha else Engine.Blocking_alpha in
      let traced = Rng.int rng 4 = 0 in
      let run f () = f ?model:(Some model) ?faults:(Some faults) topo program in
      let expected, got =
        if traced then begin
          let expected, want = trace_of (run Variant_engine.run) in
          let got, have = trace_of (run Engine.run) in
          if want <> have then QCheck.Test.fail_report "trace events differ";
          (expected, got)
        end
        else (outcome (run Variant_engine.run), outcome (run Engine.run))
      in
      match (expected, got) with
      | Ok want, Ok have ->
        if want.Engine.stranded <> have.Engine.stranded then
          QCheck.Test.fail_report "stranded lists differ";
        digest program want = digest program have
      | Error want, Error have -> want = have
      | Ok _, Error _ -> QCheck.Test.fail_report "only Engine.run raised"
      | Error _, Ok _ -> QCheck.Test.fail_report "only the variant loop raised")

(* --- golden reports ------------------------------------------------------- *)

let parse_ok topo pattern ~chunks ~size =
  let topo = Result.get_ok (Parse.parse_topology topo) in
  let npus = Topology.num_npus topo in
  let pattern = Result.get_ok (Parse.parse_pattern pattern npus) in
  (topo, Spec.make ~chunks_per_npu:chunks ~buffer_size:size ~pattern ~npus ())

let synthesized topo pattern ~chunks ~size =
  let topo, spec = parse_ok topo pattern ~chunks ~size in
  let result = Synth.synthesize ~seed:1 ~trials:1 ~domains:1 topo spec in
  (topo, result, Program.of_schedule ~chunk_size:(Spec.chunk_size spec) result.Synth.schedule)

(* The seven configs of the benchmark's flat-paper workload, at 64 MB and
   synthesis seed 1. *)
let flat_paper_goldens =
  [
    ("dgx1", "all-reduce", 16, "9ed029d0a65cf1b56723b2a50735e959");
    ("dragonfly", "all-reduce", 4, "2c143177e6c5718766e5bbd56565dc7a");
    ("switch:64", "all-reduce", 1, "3e602006951a805f3a26058b723b20db");
    ("mesh:8x8", "all-gather", 4, "0cb5735974cf0d2ff3bf105d2f2c7503");
    ("torus:4x4x4", "all-reduce", 4, "49ed710b8b1b9b062911a019ecd9582d");
    ("rfs:2x8x8", "all-reduce", 1, "6468912d990c663b2b13c022371a9134");
    ("mesh:16x16", "all-gather", 1, "820e025b6b0bce3c2ef89a8d17122359");
  ]

let test_flat_paper_goldens () =
  List.iter
    (fun (t, p, chunks, golden) ->
      let topo, _, program = synthesized t p ~chunks ~size:64e6 in
      Alcotest.(check string)
        (Printf.sprintf "%s %s k%d" t p chunks)
        golden
        (digest program (Engine.run topo program)))
    flat_paper_goldens

(* Mid-flight faults on a synthesized mesh All-Gather: a degradation, a
   death and recovery (reroutes over the degraded routing table) and the
   death of both links into NPU 0 (strands every transfer still bound for
   it). *)
let test_faulted_golden () =
  let topo, result, program = synthesized "mesh:4x4" "all-gather" ~chunks:2 ~size:4e6 in
  let span = result.Synth.collective_time in
  let link src dst = (List.hd (Topology.find_links topo ~src ~dst)).Topology.id in
  let faults =
    Engine.
      [
        Link_degrades { link = link 5 6; factor = 3.; at = 0.1 *. span };
        Link_dies { link = link 9 10; at = 0.2 *. span };
        Link_dies { link = link 1 0; at = 0.3 *. span };
        Link_dies { link = link 4 0; at = 0.3 *. span };
        Link_recovers { link = link 9 10; at = 0.5 *. span };
      ]
  in
  let report = Engine.run ~faults topo program in
  Alcotest.(check bool) "some transfers strand" true (report.Engine.stranded <> []);
  Alcotest.(check string) "faulted mesh:4x4 all-gather" "0ef21dc341b2dacfe0be4c2a236fe112"
    (digest program report)

(* A routed baseline: multi-hop store-and-forward over equal-cost paths. *)
let test_routed_golden () =
  let topo, spec = parse_ok "torus:4x4" "all-reduce" ~chunks:1 ~size:1e6 in
  let program = Tacos_baselines.Algo.program Tacos_baselines.Algo.Direct topo spec in
  Alcotest.(check string) "direct on torus:4x4" "8a2471cabd7ab0ec950eba345674c76a"
    (digest program (Engine.run topo program))

let () =
  Alcotest.run "replay"
    [
      ("pq", List.map QCheck_alcotest.to_alcotest [ prop_pq_matches_stable_sort ]);
      ( "routing",
        [
          Alcotest.test_case "build_partial matches Set Dijkstra" `Quick
            test_routing_matches_oracle;
          Alcotest.test_case "diameter_latency matches Set Dijkstra" `Quick
            test_diameter_latency_matches_oracle;
        ] );
      ( "program",
        [
          Alcotest.test_case "of_schedule matches Hashtbl oracle" `Quick
            test_of_schedule_matches_oracle;
        ] );
      ("engine", List.map QCheck_alcotest.to_alcotest [ prop_engine_matches_variant_loop ]);
      ( "goldens",
        [
          Alcotest.test_case "flat-paper reports" `Quick test_flat_paper_goldens;
          Alcotest.test_case "faulted report" `Quick test_faulted_golden;
          Alcotest.test_case "routed report" `Quick test_routed_golden;
        ] );
    ]
