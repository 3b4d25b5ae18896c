type edge = { id : int; src : int; dst : int; link : Link.t }

type dim_kind =
  | Ring_dim
  | Mesh_dim
  | Fully_connected_dim
  | Switch_dim of int

type dim = { kind : dim_kind; size : int; link : Link.t }

type t = {
  name : string;
  n : int;
  mutable edges_rev : edge list;
  mutable num_edges : int;
  mutable out_adj : edge list array; (* in insertion order after freeze *)
  mutable in_adj : edge list array;
  mutable edge_arr : edge array option; (* built lazily, invalidated on add *)
  mutable hier : dim array option;
  mutable ring_embeddings : int array list option;
  mutable cuts : int list list;
}

let create ?(name = "topology") n =
  if n <= 0 then invalid_arg "Topology.create: need at least one NPU";
  {
    name;
    n;
    edges_rev = [];
    num_edges = 0;
    out_adj = Array.make n [];
    in_adj = Array.make n [];
    edge_arr = None;
    hier = None;
    ring_embeddings = None;
    cuts = [];
  }

let name t = t.name
let num_npus t = t.n
let num_links t = t.num_edges

let add_link t ~src ~dst link =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Topology.add_link: endpoint out of range";
  if src = dst then invalid_arg "Topology.add_link: self-loop";
  let e = { id = t.num_edges; src; dst; link } in
  t.edges_rev <- e :: t.edges_rev;
  t.num_edges <- t.num_edges + 1;
  t.out_adj.(src) <- e :: t.out_adj.(src);
  t.in_adj.(dst) <- e :: t.in_adj.(dst);
  t.edge_arr <- None;
  e.id

let add_bidir t a b link =
  ignore (add_link t ~src:a ~dst:b link);
  ignore (add_link t ~src:b ~dst:a link)

let edge_array t =
  match t.edge_arr with
  | Some a -> a
  | None ->
    let a = Array.make t.num_edges { id = 0; src = 0; dst = 0; link = Link.default } in
    List.iter (fun e -> a.(e.id) <- e) t.edges_rev;
    t.edge_arr <- Some a;
    a

let edge t id =
  if id < 0 || id >= t.num_edges then invalid_arg "Topology.edge: id out of range";
  (edge_array t).(id)

let edges t = Array.to_list (edge_array t)
let out_edges t v = List.rev t.out_adj.(v)
let in_edges t v = List.rev t.in_adj.(v)

let find_links t ~src ~dst =
  List.filter (fun e -> e.dst = dst) (out_edges t src)

let is_strongly_connected t =
  if t.n = 1 then true
  else begin
    let fwd =
      let seen = Array.make t.n false in
      let rec visit v =
        if not seen.(v) then begin
          seen.(v) <- true;
          List.iter (fun e -> visit e.dst) t.out_adj.(v)
        end
      in
      visit 0;
      seen
    in
    let bwd =
      let seen = Array.make t.n false in
      let rec visit v =
        if not seen.(v) then begin
          seen.(v) <- true;
          List.iter (fun e -> visit e.src) t.in_adj.(v)
        end
      in
      visit 0;
      seen
    in
    Array.for_all Fun.id fwd && Array.for_all Fun.id bwd
  end

(* Kosaraju: forward DFS finish order, then reverse-graph DFS in reverse
   finish order peels off one component per root. *)
let strongly_connected_components t =
  let finish = ref [] in
  let seen = Array.make t.n false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun e -> visit e.dst) t.out_adj.(v);
      finish := v :: !finish
    end
  in
  for v = 0 to t.n - 1 do
    visit v
  done;
  let comp = Array.make t.n (-1) in
  let components = ref [] in
  let rec collect c v acc =
    comp.(v) <- c;
    List.fold_left
      (fun acc e -> if comp.(e.src) < 0 then collect c e.src acc else acc)
      (v :: acc) t.in_adj.(v)
  in
  let c = ref 0 in
  List.iter
    (fun v ->
      if comp.(v) < 0 then begin
        components := List.sort compare (collect !c v []) :: !components;
        incr c
      end)
    !finish;
  (* Largest first; ties by smallest member, so the result is canonical. *)
  List.sort
    (fun a b ->
      match compare (List.length b) (List.length a) with
      | 0 -> compare a b
      | n -> n)
    !components

let reverse t =
  let r = create ~name:(t.name ^ "-reversed") t.n in
  (* Preserve edge ids: re-add in id order with flipped endpoints. *)
  Array.iter
    (fun e -> ignore (add_link r ~src:e.dst ~dst:e.src e.link))
    (edge_array t);
  r.hier <- t.hier;
  r

let map_links ?name t f =
  let name = match name with Some n -> n | None -> t.name ^ "-degraded" in
  let t' = create ~name t.n in
  Array.iter
    (fun e ->
      match f e with
      | Some link -> ignore (add_link t' ~src:e.src ~dst:e.dst link)
      | None -> ())
    (edge_array t);
  (* Structural metadata survives (the NPU numbering is unchanged); ring
     embeddings name physical paths that may no longer exist, so they are
     invalidated by design. *)
  t'.hier <- t.hier;
  t'.cuts <- t.cuts;
  t'

let without_links t ids =
  List.iter
    (fun id ->
      if id < 0 || id >= t.num_edges then
        invalid_arg "Topology.without_links: unknown link id")
    ids;
  let removed = Array.make t.num_edges false in
  List.iter (fun id -> removed.(id) <- true) ids;
  map_links t (fun e -> if removed.(e.id) then None else Some e.link)

let set_hierarchy t dims =
  let product = Array.fold_left (fun acc d -> acc * d.size) 1 dims in
  if product <> t.n then invalid_arg "Topology.set_hierarchy: dims do not multiply to NPU count";
  t.hier <- Some dims

let hierarchy t = t.hier

let require_hierarchy t =
  match t.hier with
  | Some h -> h
  | None -> invalid_arg "Topology: no hierarchy recorded"

let coords t v =
  let dims = require_hierarchy t in
  let c = Array.make (Array.length dims) 0 in
  let rest = ref v in
  Array.iteri
    (fun i d ->
      c.(i) <- !rest mod d.size;
      rest := !rest / d.size)
    dims;
  c

let of_coords t c =
  let dims = require_hierarchy t in
  if Array.length c <> Array.length dims then
    invalid_arg "Topology.of_coords: rank mismatch";
  let v = ref 0 in
  for i = Array.length dims - 1 downto 0 do
    if c.(i) < 0 || c.(i) >= dims.(i).size then
      invalid_arg "Topology.of_coords: coordinate out of range";
    v := (!v * dims.(i).size) + c.(i)
  done;
  !v

let dim_group t ~dim v =
  let dims = require_hierarchy t in
  if dim < 0 || dim >= Array.length dims then invalid_arg "Topology.dim_group";
  let c = coords t v in
  List.init dims.(dim).size (fun k ->
      let c' = Array.copy c in
      c'.(dim) <- k;
      of_coords t c')

let set_rings t rings = t.ring_embeddings <- Some rings
let rings t = t.ring_embeddings
let set_cut_hints t cuts = t.cuts <- cuts
let cut_hints t = t.cuts

let ingress_bandwidth_of t subset =
  let inside = Array.make t.n false in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Topology.ingress_bandwidth_of";
      inside.(v) <- true)
    subset;
  List.fold_left
    (fun acc (e : edge) ->
      if inside.(e.dst) && not inside.(e.src) then acc +. Link.bandwidth e.link
      else acc)
    0. (edges t)

let fold_nodes t f init =
  let acc = ref init in
  for v = 0 to t.n - 1 do
    acc := f !acc v
  done;
  !acc

let min_dir_bandwidth (adj : edge list array) t =
  fold_nodes t
    (fun acc v ->
      let bw =
        List.fold_left (fun s (e : edge) -> s +. Link.bandwidth e.link) 0. adj.(v)
      in
      Float.min acc bw)
    infinity

let min_ingress_bandwidth t = min_dir_bandwidth t.in_adj t
let min_egress_bandwidth t = min_dir_bandwidth t.out_adj t

let total_bandwidth t =
  List.fold_left (fun s (e : edge) -> s +. Link.bandwidth e.link) 0. (edges t)

(* Dijkstra over α costs from one source; returns the distance array. *)
let alpha_distances t src =
  let module Pq = Tacos_util.Pq in
  let dist = Array.make t.n infinity in
  dist.(src) <- 0.;
  let pq = Pq.Pairs.create () in
  Pq.Pairs.push pq 0. src;
  while not (Pq.Pairs.is_empty pq) do
    let d = Pq.Pairs.min_key pq in
    let v = Pq.Pairs.pop pq in
    if d <= dist.(v) then
      List.iter
        (fun (e : edge) ->
          let nd = d +. e.link.Link.alpha in
          if nd < dist.(e.dst) then begin
            dist.(e.dst) <- nd;
            Pq.Pairs.push pq nd e.dst
          end)
        t.out_adj.(v)
  done;
  dist

let diameter_latency t =
  fold_nodes t
    (fun acc src ->
      let dist = alpha_distances t src in
      Array.fold_left
        (fun acc d ->
          if d = infinity then failwith "Topology.diameter_latency: not strongly connected"
          else Float.max acc d)
        acc dist)
    0.

let pp ppf t =
  Format.fprintf ppf "%s: %d NPUs, %d links" t.name t.n t.num_edges

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" t.name);
  Buffer.add_string buf "  node [shape=circle];\n";
  (* Collapse a bidirectional pair into one edge drawn both ways. *)
  let consumed = Array.make t.num_edges false in
  Array.iter
    (fun (e : edge) ->
      if not consumed.(e.id) then begin
        let reverse_twin =
          List.find_opt
            (fun (r : edge) -> (not consumed.(r.id)) && r.id <> e.id && r.link = e.link)
            (find_links t ~src:e.dst ~dst:e.src)
        in
        let label =
          Printf.sprintf "%.3g GB/s" (Link.bandwidth e.link /. 1e9)
        in
        (match reverse_twin with
        | Some r ->
          consumed.(r.id) <- true;
          Buffer.add_string buf
            (Printf.sprintf "  %d -> %d [dir=both, label=\"%s\"];\n" e.src e.dst label)
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" e.src e.dst label));
        consumed.(e.id) <- true
      end)
    (edge_array t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
