(* Namespaces of the substrate libraries. *)
open Tacos_topology

let row_height = 14
let label_width = 90
let chart_width = 900
let top_margin = 24

(* Deterministic, well-spread chunk colors via the golden-angle hue walk. *)
let chunk_color chunk =
  let hue = float_of_int (chunk * 137) -. (360. *. Float.of_int (chunk * 137 / 360)) in
  Printf.sprintf "hsl(%.0f, 65%%, 55%%)" hue

let escape s =
  String.concat ""
    (List.map
       (function
         | '<' -> "&lt;" | '>' -> "&gt;" | '&' -> "&amp;" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let render topo (sched : Schedule.t) =
  let m = Topology.num_links topo in
  let makespan = Float.max sched.Schedule.makespan 1e-12 in
  let x_of time = label_width + int_of_float (time /. makespan *. float_of_int chart_width) in
  let height = top_margin + (m * row_height) + 10 in
  let width = label_width + chart_width + 10 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"10\">\n"
       width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"14\">%s — makespan %s</text>\n" label_width
       (escape (Topology.name topo))
       (escape (Tacos_util.Units.time_pp sched.Schedule.makespan)));
  (* Row background and labels. *)
  for e = 0 to m - 1 do
    let y = top_margin + (e * row_height) in
    let edge = Topology.edge topo e in
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"/>\n"
         label_width y chart_width (row_height - 2)
         (if e mod 2 = 0 then "#f4f4f4" else "#ececec"));
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"2\" y=\"%d\">%d&#8594;%d</text>\n"
         (y + row_height - 4) edge.Topology.src edge.Topology.dst)
  done;
  (* Sends. *)
  List.iter
    (fun (s : Schedule.send) ->
      let y = top_margin + (s.edge * row_height) in
      let x0 = x_of s.start and x1 = x_of s.finish in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\">\
            <title>chunk %d: %d&#8594;%d [%s, %s]</title></rect>\n"
           x0 y (max 1 (x1 - x0)) (row_height - 2) (chunk_color s.chunk) s.chunk
           s.src s.dst
           (Tacos_util.Units.time_pp s.start)
           (Tacos_util.Units.time_pp s.finish)))
    (Schedule.sends sched);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
