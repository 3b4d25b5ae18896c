(* Switch unwinding (§IV-G, Fig. 13): a switch fabric gives all-to-all
   reachability but shared bandwidth. TACOS unwinds an N-NPU switch into a
   degree-d point-to-point network — d outgoing links per NPU, each with β
   scaled by d. Small d preserves per-link bandwidth (good for large
   collectives), large d shortens paths (good for latency-bound ones). This
   example sweeps d for an 8-NPU switch at two collective sizes and shows
   the tradeoff flip.

     dune exec examples/switch_unwinding.exe *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Units = Tacos_util.Units
module Table = Tacos_util.Table

let npus = 8

let collective_time topo size =
  let spec =
    Spec.make ~buffer_size:size ~pattern:Pattern.All_gather ~npus ()
  in
  let result = Synth.synthesize ~seed:11 ~trials:4 topo spec in
  (match Synth.verify topo result with
  | Ok () -> ()
  | Error e -> failwith e);
  (* Evaluate under the simulator, like the benches. *)
  Tacos.Tuner.simulated_time topo result

let () =
  Printf.printf "8-NPU switch (NIC 50 GB/s, alpha 2 us) unwound at degree d:\n\n";
  let link = Link.of_bandwidth ~alpha:2e-6 50e9 in
  let sizes = [ ("1 KB (latency-bound)", 1e3); ("256 MB (bandwidth-bound)", 256e6) ] in
  List.iter
    (fun (label, size) ->
      Printf.printf "--- All-Gather of %s ---\n" label;
      let rows =
        List.map
          (fun degree ->
            let topo = Builders.switch ~link ~degree npus in
            let t = collective_time topo size in
            [
              Printf.sprintf "d=%d" degree;
              string_of_int (Topology.num_links topo);
              Units.bandwidth_pp
                (Link.bandwidth (List.hd (Topology.edges topo)).Topology.link);
              Units.time_pp t;
            ])
          [ 1; 2; 4; 7 ]
      in
      Table.print ~header:[ "Unwinding"; "Links"; "Per-link BW"; "AG time" ] rows;
      print_newline ())
    sizes;
  print_endline
    "d=1 keeps full per-link bandwidth (best for large collectives); d=N-1";
  print_endline
    "reaches everyone in one hop (best when latency dominates) — footnote 6."
