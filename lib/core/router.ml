(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
module Rng = Tacos_util.Rng
module Obs = Tacos_obs.Obs

let obs_relaxations = Obs.counter "router.relaxations"
let obs_jobs = Obs.counter "router.jobs"
let obs_calendar_scan = Obs.histogram "router.calendar_scan_depth"
let obs_route_timer = Obs.timer "router.route_seconds"

type job = { chunk : int; src : int; dst : int }

(* Per-link reservation calendar: sorted disjoint busy intervals. All time
   comparisons use the magnitude-scaled [Schedule.eps_for] tolerance — an
   absolute slack (the old 1e-15) is below one ulp once makespans reach
   ~100s, which made exactly-fitting gaps invisible on long calendars. *)
module Calendar = struct
  type t = (float * float) list ref

  let create () : t = ref []

  (* Earliest start >= ready such that [start, start + dur) is free. *)
  let earliest_free (t : t) ~ready ~dur =
    let depth = ref 0 in
    let rec scan start = function
      | [] -> start
      | (b, e) :: rest ->
        incr depth;
        if start +. dur <= b +. Schedule.eps_for b then start
        else scan (Float.max start e) rest
    in
    let start = scan ready !t in
    Obs.observe obs_calendar_scan (float_of_int !depth);
    start

  (* Insert keeping the list sorted and disjoint; a reservation that
     overlaps an existing interval by more than the scaled tolerance is a
     routing bug and raises instead of silently corrupting the calendar. *)
  let reserve (t : t) ~start ~dur =
    let finish = start +. dur in
    let eps = Schedule.eps_for finish in
    let rec insert = function
      | [] -> [ (start, finish) ]
      | ((b, _) :: _) as rest when finish <= b +. eps -> (start, finish) :: rest
      | ((_, e) as iv) :: rest when e <= start +. eps -> iv :: insert rest
      | (b, e) :: _ ->
        invalid_arg
          (Printf.sprintf
             "Calendar.reserve: [%g, %g) overlaps reserved [%g, %g)" start finish b
             e)
    in
    t := insert !t
end

let route_jobs ?(seed = 42) topo ~chunk_size jobs =
  if not (Topology.is_strongly_connected topo) then
    raise (Synthesizer.Stuck "routing needs a strongly connected topology");
  let rng = Rng.create seed in
  let n = Topology.num_npus topo in
  let m = Topology.num_links topo in
  let calendars = Array.init m (fun _ -> Calendar.create ()) in
  let cost = Array.make m 0. in
  List.iter
    (fun (e : Topology.edge) -> cost.(e.id) <- Link.cost e.link chunk_size)
    (Topology.edges topo);
  (* Route one chunk src->dst through the partially reserved TEN: Dijkstra
     on earliest arrival, where taking link e from a node reached at time t
     departs at the link's earliest free slot. *)
  let route { chunk; src; dst } =
    let arrival = Array.make n infinity in
    let via = Array.make n None (* (edge id, start time) taken into the node *) in
    arrival.(src) <- 0.;
    let module P = Set.Make (struct
      type t = float * int

      let compare = compare
    end) in
    let pq = ref (P.singleton (0., src)) in
    let settled = Array.make n false in
    let rec loop () =
      match P.min_elt_opt !pq with
      | None -> ()
      | Some ((t, u) as elt) ->
        pq := P.remove elt !pq;
        if not settled.(u) then begin
          settled.(u) <- true;
          if u <> dst then
            List.iter
              (fun (e : Topology.edge) ->
                Obs.incr obs_relaxations;
                let start =
                  Calendar.earliest_free calendars.(e.id) ~ready:t ~dur:cost.(e.id)
                in
                let finish = start +. cost.(e.id) in
                if finish < arrival.(e.dst) then begin
                  arrival.(e.dst) <- finish;
                  via.(e.dst) <- Some (e.id, start);
                  pq := P.add (finish, e.dst) !pq
                end)
              (Topology.out_edges topo u)
        end;
        if not (settled.(dst)) then loop ()
    in
    loop ();
    if arrival.(dst) = infinity then
      raise (Synthesizer.Stuck "routing found no path");
    (* Walk back from dst, reserving and emitting. *)
    let rec backtrack v acc =
      if v = src then acc
      else
        match via.(v) with
        | None -> assert false
        | Some (edge_id, start) ->
          let e = Topology.edge topo edge_id in
          Calendar.reserve calendars.(edge_id) ~start ~dur:cost.(edge_id);
          backtrack e.Topology.src
            ({
               Schedule.chunk;
               edge = edge_id;
               src = e.Topology.src;
               dst = e.Topology.dst;
               start;
               finish = start +. cost.(edge_id);
             }
            :: acc)
    in
    backtrack dst []
  in
  let jobs = Array.of_list jobs in
  Rng.shuffle_in_place rng jobs;
  let sends = ref [] in
  Obs.time obs_route_timer (fun () ->
      Array.iter
        (fun job ->
          if job.src <> job.dst then begin
            Obs.incr obs_jobs;
            sends := route job @ !sends
          end)
        jobs);
  Schedule.make !sends

let jobs_of_spec (spec : Spec.t) =
  let n = spec.npus in
  match spec.pattern with
  | Pattern.All_to_all ->
    List.concat_map
      (fun src ->
        List.concat_map
          (fun dst ->
            if src = dst then []
            else
              List.init spec.chunks_per_npu (fun slot ->
                  { chunk = Spec.a2a_chunk spec ~src ~dst slot; src; dst }))
          (List.init n Fun.id))
      (List.init n Fun.id)
  | Pattern.Gather root ->
    (* Every NPU's chunks converge on the root. *)
    List.filter_map
      (fun c ->
        let src = Spec.owner spec c in
        if src = root then None else Some { chunk = c; src; dst = root })
      (List.init (Spec.num_chunks spec) Fun.id)
  | Pattern.Scatter root ->
    List.filter_map
      (fun c ->
        let dst = Spec.owner spec c in
        if dst = root then None else Some { chunk = c; src = root; dst })
      (List.init (Spec.num_chunks spec) Fun.id)
  | Pattern.All_gather | Pattern.Reduce_scatter | Pattern.All_reduce
  | Pattern.Broadcast _ | Pattern.Reduce _ ->
    invalid_arg
      "Router.synthesize: this pattern belongs to the matching loop \
       (Synthesizer.synthesize)"

let synthesize ?(seed = 42) topo (spec : Spec.t) =
  if Topology.num_npus topo <> spec.npus then
    invalid_arg "Router.synthesize: spec NPU count does not match topology";
  let t0 = Unix.gettimeofday () in
  let jobs = jobs_of_spec spec in
  let schedule = route_jobs ~seed topo ~chunk_size:(Spec.chunk_size spec) jobs in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  {
    Synthesizer.spec;
    schedule;
    collective_time = schedule.Schedule.makespan;
    phases = None;
    stats =
      {
        Synthesizer.wall_seconds;
        rounds = List.length jobs;
        matches = Schedule.num_sends schedule;
        trials = 1;
      };
  }

let synthesize_any ?seed ?trials ?domains ?deadline ?sketch topo (spec : Spec.t) =
  match spec.pattern with
  | Pattern.All_to_all | Pattern.Gather _ | Pattern.Scatter _ ->
    (match deadline with
    | Some d when Tacos_util.Deadline.expired d ->
      raise Synthesizer.Deadline_exceeded
    | _ -> ());
    if Option.is_some sketch then
      raise
        (Synthesizer.Unsupported
           (Pattern.name spec.pattern ^ ": sketches constrain the matching loop only"));
    synthesize ?seed topo spec
  | _ -> Synthesizer.synthesize ?seed ?trials ?domains ?deadline ?sketch topo spec
