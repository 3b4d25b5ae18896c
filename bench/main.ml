(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md §3 for the index).

     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- fig16     # one experiment
     TACOS_BENCH_SCALE=small|large         # trim / extend the sweeps *)

let experiments =
  [
    ("fig1", "Fig. 1  link-traffic heat maps", Fig01.run);
    ("fig2", "Fig. 2  basic-algorithm bandwidth", Fig02.run);
    ("fig10", "Fig. 10 synthesis vs connectivity", Fig10.run);
    ("fig14", "Fig. 14 All-Gather on 3x3 mesh", Fig14.run);
    ("fig15", "Fig. 15 DF / Switch / 3D-RFS", Fig15.run);
    ("tab5", "Table V multi-node 3D-RFS", Tab05.run);
    ("fig16", "Fig. 16 vs BlueConnect/Themis", Fig16.run);
    ("fig17", "Fig. 17 vs MultiTree / C-Cube", Fig17.run);
    ("fig18", "Fig. 18 utilization timelines", Fig18.run);
    ("fig19", "Fig. 19 synthesis-time scaling", Fig19.run);
    ("fig20", "Fig. 20 end-to-end training", Fig20.run);
    ("fig21", "Fig. 21 training breakdown", Fig21.run);
    ("ablation", "Ablations of TACOS' design choices", Ablation.run);
    ("strategies", "Table III parallelization strategies", Strategies.run);
    ("exotic", "Synthesis for fabrics without hand-made collectives", Exotic.run);
    ("a2a", "All-to-All / Gather / Scatter routing extension", A2a.run);
    ("resilience", "Synthesis on broken fabrics (fault injection)", Resilience.run);
    ("midflight", "Mid-flight faults: replay vs repair vs re-synthesis", Midflight.run);
    ("overlap", "Bucketed comm/compute overlap", Overlap.run);
    ("hierarchy", "Flat vs hierarchical (process-group) synthesis", Hierarchy.run);
    ("serve", "Synthesis service trace replay (deadlines, cache, shedding)", Serve.run);
    (* Last, so a full run compares everything it just regenerated. *)
    ("regress", "Regression guard: fresh BENCH rows vs committed baselines", Regress.run);
  ]

let usage () =
  print_endline "usage: main.exe [experiment|list] ...";
  print_endline "experiments:";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-6s %s\n" id desc) experiments

let run_one id =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | Some (_, _, run) -> run ()
  | None ->
    if id = "list" || id = "--help" || id = "-h" then usage ()
    else begin
      Printf.eprintf "unknown experiment %S\n" id;
      usage ();
      exit 1
    end

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as ids) -> List.iter run_one ids
  | _ ->
    let t0 = Unix.gettimeofday () in
    List.iter (fun (_, _, run) -> run ()) experiments;
    Printf.printf "\nall experiments done in %s\n"
      (Tacos_util.Units.time_pp (Unix.gettimeofday () -. t0))
