type table = {
  n : int;
  next : int array array; (* next.(dst).(src) = neighbor towards dst *)
  dist : float array array; (* dist.(dst).(src) = min cost src->dst *)
}

module Pq = Tacos_util.Pq

(* Dijkstra towards [dst] over reversed edges: settles the cost of every
   node's best path to [dst] and the first hop on that path. [in_src.(v)]
   and [in_cost.(v)] list the links into [v] in insertion order, with their
   cost at the table's message size. The queue pops (dist, node) pairs in
   lexicographic order and an edge relaxes only on a strict improvement, so
   among equal-cost routes the one found first wins. Unreachable sources
   keep [dist = infinity] / [next = -1]. *)
let dijkstra_to pq ~in_src ~in_cost dst =
  let n = Array.length in_src in
  let dist = Array.make n infinity in
  let next = Array.make n (-1) in
  dist.(dst) <- 0.;
  Pq.Pairs.push pq 0. dst;
  while not (Pq.Pairs.is_empty pq) do
    let d = Pq.Pairs.min_key pq in
    let v = Pq.Pairs.pop pq in
    if d <= dist.(v) then begin
      let srcs = in_src.(v) and costs = in_cost.(v) in
      for i = 0 to Array.length srcs - 1 do
        let u = srcs.(i) in
        let nd = d +. costs.(i) in
        if nd < dist.(u) then begin
          dist.(u) <- nd;
          next.(u) <- v;
          Pq.Pairs.push pq nd u
        end
      done
    end
  done;
  (dist, next)

let build_partial topo ~size =
  let n = Topology.num_npus topo in
  let in_edges = Array.init n (fun v -> Array.of_list (Topology.in_edges topo v)) in
  let in_src = Array.map (Array.map (fun (e : Topology.edge) -> e.src)) in_edges in
  let in_cost =
    Array.map (Array.map (fun (e : Topology.edge) -> Link.cost e.link size)) in_edges
  in
  let pq = Pq.Pairs.create () in
  let dist = Array.make n [||] and next = Array.make n [||] in
  for d = 0 to n - 1 do
    let dd, nn = dijkstra_to pq ~in_src ~in_cost d in
    dist.(d) <- dd;
    next.(d) <- nn
  done;
  { n; next; dist }

let check t src dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Routing: NPU out of range"

let next_hop t ~src ~dst =
  check t src dst;
  if src = dst then invalid_arg "Routing.next_hop: src = dst";
  if t.dist.(dst).(src) = infinity then
    failwith (Printf.sprintf "Routing.next_hop: NPU %d cannot reach NPU %d" src dst);
  t.next.(dst).(src)

let reachable t ~src ~dst =
  check t src dst;
  t.dist.(dst).(src) < infinity

let path_opt t ~src ~dst =
  check t src dst;
  if t.dist.(dst).(src) = infinity then None
  else
    let rec go v acc =
      if v = dst then List.rev (v :: acc) else go t.next.(dst).(v) (v :: acc)
    in
    Some (go src [])

let path_cost t ~src ~dst =
  check t src dst;
  t.dist.(dst).(src)
