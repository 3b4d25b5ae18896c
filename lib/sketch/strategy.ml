(* Namespaces of the substrate libraries. *)
open Tacos_collective
module Json = Tacos_util.Json

type point = {
  chunks_per_npu : int;
  steps : int;
  sends : int;
  collective_time : float;
  simulated_time : float;
  synthesis_seconds : float;
}

type outcome = {
  points : point list;
  frontier : point list;
  dominated : (point * point) list;
}

(* Distinct send-start waves, merging starts within the schedule's own
   floating-point tolerance — on a homogeneous fabric this is exactly the
   TEN span count. *)
let steps_of (s : Schedule.t) =
  match Schedule.sends s with
  | [] -> 0
  | sends ->
    let eps = Schedule.eps_for s.Schedule.makespan in
    let starts =
      List.sort_uniq compare
        (List.map (fun (x : Schedule.send) -> x.Schedule.start) sends)
    in
    let count, _ =
      List.fold_left
        (fun (n, last) t ->
          if t -. last > eps then (n + 1, t) else (n, last))
        (1, List.hd starts)
        (List.tl starts)
    in
    count

let point_of_choice (c : Tacos.Tuner.choice) =
  let r = c.Tacos.Tuner.result in
  {
    chunks_per_npu = c.Tacos.Tuner.chunks_per_npu;
    steps = steps_of r.Tacos.Synthesizer.schedule;
    sends = Schedule.num_sends r.Tacos.Synthesizer.schedule;
    collective_time = r.Tacos.Synthesizer.collective_time;
    simulated_time = c.Tacos.Tuner.simulated_time;
    synthesis_seconds = r.Tacos.Synthesizer.stats.Tacos.Synthesizer.wall_seconds;
  }

let dominates a b =
  a.chunks_per_npu <= b.chunks_per_npu
  && a.steps <= b.steps
  && a.simulated_time <= b.simulated_time
  && (a.chunks_per_npu < b.chunks_per_npu
     || a.steps < b.steps
     || a.simulated_time < b.simulated_time)

let classify points =
  let dominated =
    List.filter_map
      (fun p ->
        match List.find_opt (fun q -> dominates q p) points with
        | Some q -> Some (p, q)
        | None -> None)
      points
  in
  let frontier =
    List.sort
      (fun a b -> compare a.chunks_per_npu b.chunks_per_npu)
      (List.filter
         (fun p -> not (List.exists (fun q -> dominates q p) points))
         points)
  in
  { points; frontier; dominated }

let sweep ?seed ?(trials = 1) ?(domains = 1) ?candidates ?sketch topo ~pattern
    ~size =
  let synthesize ~seed topo spec =
    match sketch with
    | Some sk ->
      (* Compile per candidate spec: pin chunk ids depend on the chunk
         count, and infeasibility must surface before matching starts. *)
      let c = Sketch.compile topo spec sk in
      Tacos.Synthesizer.synthesize ~seed ~trials ~domains ~sketch:c topo spec
    | None -> (
      match (spec : Spec.t).pattern with
      | Pattern.All_to_all | Pattern.Gather _ | Pattern.Scatter _ ->
        Tacos.Router.synthesize ~seed topo spec
      | _ -> Tacos.Synthesizer.synthesize ~seed ~trials ~domains topo spec)
  in
  let choices =
    Tacos.Tuner.sweep ?seed ?candidates ~synthesize topo ~pattern ~size
  in
  classify (List.map point_of_choice choices)

let point_fields p =
  [
    ("chunks_per_npu", Json.Number (float_of_int p.chunks_per_npu));
    ("steps", Json.Number (float_of_int p.steps));
    ("sends", Json.Number (float_of_int p.sends));
    ("collective_time", Json.Number p.collective_time);
    ("simulated_time", Json.Number p.simulated_time);
    ("synthesis_seconds", Json.Number p.synthesis_seconds);
  ]

let to_json_value o =
  let point p = Json.Object (point_fields p) in
  let on_frontier p = List.memq p o.frontier in
  Json.Object
    [
      ( "points",
        Json.Array
          (List.map
             (fun p ->
               match point p with
               | Json.Object fields ->
                 Json.Object
                   (fields @ [ ("on_frontier", Json.Bool (on_frontier p)) ])
               | j -> j)
             o.points) );
      ("frontier", Json.Array (List.map point o.frontier));
      ( "dominated",
        Json.Array
          (List.map
             (fun (p, by) ->
               Json.Object
                 [
                   ("point", point p);
                   ( "dominated_by",
                     Json.Number (float_of_int by.chunks_per_npu) );
                 ])
             o.dominated) );
    ]

let to_json o = Json.encode (to_json_value o)
