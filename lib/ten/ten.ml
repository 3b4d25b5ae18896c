(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective

type t = {
  topo : Topology.t;
  span_cost : float;
  mutable grid : int option array list; (* one array (per edge) per span, reversed *)
  mutable num_spans : int;
}

let create ?(spans = 0) topo ~span_cost =
  if span_cost <= 0. then invalid_arg "Ten.create: span_cost must be positive";
  let t = { topo; span_cost; grid = []; num_spans = 0 } in
  for _ = 1 to spans do
    t.grid <- Array.make (Topology.num_links topo) None :: t.grid;
    t.num_spans <- t.num_spans + 1
  done;
  t

let spans t = t.num_spans

let expand t =
  t.grid <- Array.make (Topology.num_links t.topo) None :: t.grid;
  t.num_spans <- t.num_spans + 1

let span_array t span =
  if span < 0 || span >= t.num_spans then invalid_arg "Ten: span out of range";
  List.nth t.grid (t.num_spans - 1 - span)

let occupant t ~span ~edge =
  let a = span_array t span in
  if edge < 0 || edge >= Array.length a then invalid_arg "Ten: edge out of range";
  a.(edge)

let match_chunk t ~span ~edge ~chunk =
  let a = span_array t span in
  if edge < 0 || edge >= Array.length a then invalid_arg "Ten: edge out of range";
  match a.(edge) with
  | Some _ -> invalid_arg "Ten.match_chunk: edge already occupied in this span"
  | None -> a.(edge) <- Some chunk

let utilization t ~span =
  let a = span_array t span in
  let occupied = Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 a in
  float_of_int occupied /. float_of_int (Array.length a)

let of_schedule topo ~span_cost sched =
  let tol = 1e-6 *. span_cost in
  let span_of time =
    let s = time /. span_cost in
    let rounded = Float.round s in
    if Float.abs (s -. rounded) > 1e-6 then
      invalid_arg "Ten.of_schedule: send not aligned with the span grid";
    int_of_float rounded
  in
  let t = create topo ~span_cost in
  List.iter
    (fun (s : Schedule.send) ->
      if Float.abs (s.finish -. s.start -. span_cost) > tol then
        invalid_arg "Ten.of_schedule: send duration differs from the span cost";
      let span = span_of s.start in
      while spans t <= span do
        expand t
      done;
      match_chunk t ~span ~edge:s.edge ~chunk:s.chunk)
    (Schedule.sends sched);
  t

let to_schedule t =
  let sends = ref [] in
  List.iteri
    (fun rev_idx a ->
      let span = t.num_spans - 1 - rev_idx in
      Array.iteri
        (fun edge_id occ ->
          match occ with
          | None -> ()
          | Some chunk ->
            let e = Topology.edge t.topo edge_id in
            let start = float_of_int span *. t.span_cost in
            sends :=
              {
                Schedule.chunk;
                edge = edge_id;
                src = e.Topology.src;
                dst = e.Topology.dst;
                start;
                finish = start +. t.span_cost;
              }
              :: !sends)
        a)
    t.grid;
  Schedule.make !sends

(* --- cached expansion state ------------------------------------------------

   The event-driven synthesizer expands the TEN implicitly, but it still pays
   an O(links) materialization per trial: per-link endpoint and α/β arrays
   plus the adjacency index the feasibility check walks. [Expansion] hoists
   that state out so a caller that synthesizes repeatedly over one fabric —
   mid-flight repair re-planning the suffix after every fault epoch — reuses
   the healthy topology's expansion instead of rebuilding it, and expresses
   dead links as a mask over the *healthy* link-id space (no degraded copy,
   no id renumbering). *)

module Expansion = struct
  type t = {
    topo : Topology.t;
    src : int array;  (* per healthy link id *)
    dst : int array;
    alpha : float array;
    beta : float array;
    out_links : int array array;  (* per NPU: outgoing link ids, insertion order *)
    in_links : int array array;  (* per NPU: incoming link ids, insertion order *)
    mutable rev : t option;  (* lazily-built reversed view (ids preserved) *)
  }

  let prepare topo =
    let n = Topology.num_npus topo and m = Topology.num_links topo in
    let src = Array.make m 0
    and dst = Array.make m 0
    and alpha = Array.make m 0.
    and beta = Array.make m 0. in
    let out_links = Array.make n [||] and in_links = Array.make n [||] in
    List.iter
      (fun (e : Topology.edge) ->
        src.(e.id) <- e.src;
        dst.(e.id) <- e.dst;
        alpha.(e.id) <- e.link.Link.alpha;
        beta.(e.id) <- e.link.Link.beta)
      (Topology.edges topo);
    for v = 0 to n - 1 do
      out_links.(v) <-
        Array.of_list
          (List.map (fun (e : Topology.edge) -> e.id) (Topology.out_edges topo v));
      in_links.(v) <-
        Array.of_list
          (List.map (fun (e : Topology.edge) -> e.id) (Topology.in_edges topo v))
    done;
    { topo; src; dst; alpha; beta; out_links; in_links; rev = None }

  let topology t = t.topo
  let num_links t = Array.length t.src
  let num_npus t = Array.length t.out_links
  let src t = t.src
  let dst t = t.dst
  let alpha t = t.alpha
  let beta t = t.beta
  let out_links t = t.out_links
  let in_links t = t.in_links

  let reversed t =
    match t.rev with
    | Some r -> r
    | None ->
      let r =
        {
          topo = Topology.reverse t.topo;
          src = t.dst;
          dst = t.src;
          alpha = t.alpha;
          beta = t.beta;
          out_links = t.in_links;
          in_links = t.out_links;
          rev = Some t;
        }
      in
      t.rev <- Some r;
      r
end

let render t =
  let buf = Buffer.create 1024 in
  let nlinks = Topology.num_links t.topo in
  let shown = min nlinks 64 in
  let cell_width =
    (* wide enough for the largest chunk id seen *)
    let max_chunk =
      List.fold_left
        (fun acc a ->
          Array.fold_left (fun acc -> function Some c -> max acc c | None -> acc) acc a)
        0 t.grid
    in
    max 2 (String.length (string_of_int max_chunk))
  in
  let label e =
    let e = Topology.edge t.topo e in
    Printf.sprintf "%3d->%-3d" e.Topology.src e.Topology.dst
  in
  Buffer.add_string buf (String.make 9 ' ');
  for span = 0 to t.num_spans - 1 do
    Buffer.add_string buf (Printf.sprintf "|t=%-*d" cell_width span)
  done;
  Buffer.add_string buf "|\n";
  for e = 0 to shown - 1 do
    Buffer.add_string buf (Printf.sprintf "%8s " (label e));
    for span = 0 to t.num_spans - 1 do
      let cell =
        match occupant t ~span ~edge:e with
        | Some c -> string_of_int c
        | None -> "."
      in
      Buffer.add_string buf (Printf.sprintf "|%*s " cell_width cell)
    done;
    Buffer.add_string buf "|\n"
  done;
  if shown < nlinks then
    Buffer.add_string buf (Printf.sprintf "... (%d more links)\n" (nlinks - shown));
  Buffer.contents buf
