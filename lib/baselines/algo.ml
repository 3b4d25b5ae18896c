(* Namespaces of the substrate libraries. *)
open Tacos_sim

type t =
  | Ring of { bidirectional : bool }
  | Direct
  | Rhd
  | Dbt
  | Blueconnect of { chunks : int }
  | Themis of { chunks : int }
  | Multitree
  | Taccl_like
  | Ccube

let name = function
  | Ring { bidirectional = true } -> "Ring"
  | Ring { bidirectional = false } -> "Ring (uni)"
  | Direct -> "Direct"
  | Rhd -> "RHD"
  | Dbt -> "DBT"
  | Blueconnect { chunks } -> Printf.sprintf "BlueConnect(%d)" chunks
  | Themis { chunks } -> Printf.sprintf "Themis(%d)" chunks
  | Multitree -> "MultiTree"
  | Taccl_like -> "TACCL-like"
  | Ccube -> "C-Cube"

let ring = Ring { bidirectional = true }

let program t topo spec =
  match t with
  | Ring { bidirectional } -> Ring_algo.program ~bidirectional topo spec
  | Direct -> Direct.program topo spec
  | Rhd -> Rhd.program topo spec
  | Dbt -> Dbt.program topo spec
  | Blueconnect { chunks } -> Blueconnect.program ~chunks topo spec
  | Themis { chunks } -> Themis.program ~chunks topo spec
  | Multitree -> Multitree.program topo spec
  | Taccl_like -> Taccl_like.program topo spec
  | Ccube -> Ccube.program topo spec

let simulate t topo spec = Engine.run topo (program t topo spec)

(* The topology-agnostic candidates of [best_feasible]. *)
let all = [ Ring { bidirectional = true }; Direct; Rhd; Dbt; Multitree; Taccl_like ]

(* Build and simulate, turning the structural exceptions (unsupported
   pattern, non-power-of-two NPU count, missing hierarchy, unroutable
   fabric) into [Error]. *)
let probe t topo spec =
  match simulate t topo spec with
  | report -> Ok report
  | exception Invalid_argument msg | (exception Failure msg) -> Error msg
  | exception (Engine.Simulation_error _ as e) -> Error (Printexc.to_string e)
  | exception Not_found -> Error "internal lookup failed"

let best_feasible topo spec =
  List.fold_left
    (fun best algo ->
      match probe algo topo spec with
      | Error _ -> best
      | Ok report -> (
        match best with
        | Some (_, prev) when prev.Engine.finish_time <= report.Engine.finish_time ->
          best
        | _ -> Some (algo, report)))
    None all

let collective_time t topo spec = (simulate t topo spec).Engine.finish_time
