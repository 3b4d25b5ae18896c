(* Namespaces of the substrate libraries. *)
open Tacos_collective

let lift (group : Group.t) ~chunk_map ~offset (s : Schedule.t) =
  let n = Schedule.num_sends s in
  let node v = group.members.(v) in
  let start = Array.create_float n and finish = Array.create_float n in
  for i = 0 to n - 1 do
    start.(i) <- s.starts.(i) +. offset;
    finish.(i) <- s.finishes.(i) +. offset
  done;
  Schedule.of_arrays ~chunk:(Array.map chunk_map s.chunks)
    ~edge:(Array.map (fun e -> group.link_map.(e)) s.edges)
    ~src:(Array.map node s.srcs) ~dst:(Array.map node s.dsts) ~start ~finish

let assemble runs = Schedule.merge runs
