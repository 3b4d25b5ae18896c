(* Namespaces of the substrate libraries. *)
open Tacos_topology
module Rng = Tacos_util.Rng
module Json = Tacos_util.Json

type t =
  | Kill_link of int
  | Degrade_link of { link : int; factor : float }
  | Kill_npu of int

let pp ppf = function
  | Kill_link id -> Format.fprintf ppf "kill-link %d" id
  | Degrade_link { link; factor } ->
    Format.fprintf ppf "degrade-link %d by %gx" link factor
  | Kill_npu v -> Format.fprintf ppf "kill-npu %d" v

let to_string f = Format.asprintf "%a" pp f

let to_json = function
  | Kill_link id ->
    Json.Object [ ("kind", Json.String "kill_link"); ("link", Json.Number (float_of_int id)) ]
  | Degrade_link { link; factor } ->
    Json.Object
      [
        ("kind", Json.String "degrade_link");
        ("link", Json.Number (float_of_int link));
        ("factor", Json.Number factor);
      ]
  | Kill_npu v ->
    Json.Object [ ("kind", Json.String "kill_npu"); ("npu", Json.Number (float_of_int v)) ]

let check_factor factor =
  if not (factor >= 1.) then Error (Printf.sprintf "degradation factor %g < 1" factor)
  else if not (Float.is_finite factor) then
    Error (Printf.sprintf "degradation factor %g is not finite" factor)
  else Ok ()

let validate topo faults =
  let n = Topology.num_npus topo and m = Topology.num_links topo in
  let check = function
    | Kill_link id | Degrade_link { link = id; _ } when id < 0 || id >= m ->
      Error (Printf.sprintf "unknown link id %d (topology has %d links)" id m)
    | Degrade_link { factor; _ } -> check_factor factor
    | Kill_npu v when v < 0 || v >= n ->
      Error (Printf.sprintf "unknown NPU %d (topology has %d NPUs)" v n)
    | _ -> Ok ()
  in
  List.fold_left
    (fun acc f -> match acc with Error _ -> acc | Ok () -> check f)
    (Ok ()) faults

let killed_links topo faults =
  let dead = Hashtbl.create 16 in
  List.iter
    (function
      | Kill_link id -> Hashtbl.replace dead id ()
      | Kill_npu v ->
        List.iter
          (fun (e : Topology.edge) -> Hashtbl.replace dead e.id ())
          (Topology.out_edges topo v @ Topology.in_edges topo v)
      | Degrade_link _ -> ())
    faults;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) dead [])

let degraded_links topo faults =
  let dead = killed_links topo faults in
  let is_dead id = List.mem id dead in
  let factors = Hashtbl.create 16 in
  List.iter
    (function
      | Degrade_link { link; factor } when not (is_dead link) ->
        let prev = Option.value ~default:1. (Hashtbl.find_opt factors link) in
        Hashtbl.replace factors link (prev *. factor)
      | _ -> ())
    faults;
  List.sort compare (Hashtbl.fold (fun id f acc -> (id, f) :: acc) factors [])

let apply topo faults =
  (match validate topo faults with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.apply: " ^ msg));
  let dead = killed_links topo faults in
  let removed = Array.make (Topology.num_links topo) false in
  List.iter (fun id -> removed.(id) <- true) dead;
  let factor = Array.make (Topology.num_links topo) 1. in
  List.iter (fun (id, f) -> factor.(id) <- f) (degraded_links topo faults);
  Topology.map_links topo (fun e ->
      if removed.(e.id) then None
      else if factor.(e.id) = 1. then Some e.link
      else
        let l = e.link in
        Some (Link.make ~alpha:(l.Link.alpha *. factor.(e.id))
                ~beta:(l.Link.beta *. factor.(e.id))))

type connectivity =
  | Connected
  | Disconnected of { survivors : int list; isolated : int list }

let connectivity topo =
  match Topology.strongly_connected_components topo with
  | [ _ ] -> Connected
  | survivors :: rest ->
    Disconnected { survivors; isolated = List.sort compare (List.concat rest) }
  | [] -> Connected (* unreachable: every topology has at least one NPU *)

let pp_connectivity ppf = function
  | Connected -> Format.fprintf ppf "strongly connected"
  | Disconnected { survivors; isolated } ->
    Format.fprintf ppf "disconnected: %d NPUs survive (%s), %d isolated (%s)"
      (List.length survivors)
      (String.concat "," (List.map string_of_int survivors))
      (List.length isolated)
      (String.concat "," (List.map string_of_int isolated))

let disconnecting_fault topo faults =
  if not (Topology.is_strongly_connected topo) then None
  else
    let rec scan applied = function
      | [] -> None
      | f :: rest ->
        let applied = applied @ [ f ] in
        if Topology.is_strongly_connected (apply topo applied) then scan applied rest
        else Some f
    in
    scan [] faults

let timeline ~at topo faults =
  (match validate topo faults with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.timeline: " ^ msg));
  if not (at >= 0.) then invalid_arg "Fault.timeline: fault time must be >= 0";
  (* One timed event per affected healthy link, deduplicated the way [apply]
     deduplicates: a link that is both killed and degraded just dies, and
     repeated kills collapse. Degradations of surviving links keep their
     compound factor as a single event. *)
  let dead = killed_links topo faults in
  let degraded = degraded_links topo faults in
  List.map (fun link -> Tacos_sim.Engine.Link_dies { link; at }) dead
  @ List.map
      (fun (link, factor) -> Tacos_sim.Engine.Link_degrades { link; factor; at })
      degraded

let validate_events topo events =
  let rec check prev_at dead = function
    | [] -> Ok ()
    | (at, faults) :: rest -> (
      if not (at >= 0.) then
        Error (Printf.sprintf "fault time %g is negative" at)
      else if
        (match prev_at with Some p -> not (at > p) | None -> false)
      then
        Error
          (Printf.sprintf "fault times must be strictly increasing (%g after %g)"
             at (Option.get prev_at))
      else
        match validate topo faults with
        | Error msg -> Error (Printf.sprintf "at %g: %s" at msg)
        | Ok () -> (
          let newly = killed_links topo faults in
          match List.find_opt (fun id -> List.mem id dead) newly with
          | Some id ->
            Error
              (Printf.sprintf
                 "at %g: link %d is already dead from an earlier fault" at id)
          | None -> (
            match
              List.find_opt
                (fun (id, _) -> List.mem id dead)
                (degraded_links topo faults)
            with
            | Some (id, _) ->
              Error
                (Printf.sprintf
                   "at %g: link %d cannot degrade, it is already dead" at id)
            | None -> check (Some at) (newly @ dead) rest)))
  in
  check None [] events

let link_id_map topo faults =
  (match validate topo faults with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.link_id_map: " ^ msg));
  let dead = killed_links topo faults in
  let m = Topology.num_links topo in
  let removed = Array.make m false in
  List.iter (fun id -> removed.(id) <- true) dead;
  (* [Topology.map_links] renumbers surviving links densely in healthy-id
     order, so degraded id k is the k-th surviving healthy id. *)
  let survivors = ref [] in
  for id = m - 1 downto 0 do
    if not removed.(id) then survivors := id :: !survivors
  done;
  Array.of_list !survivors

(* --- deterministic samplers ---------------------------------------------- *)

let sample_distinct rng ~universe ~what k =
  if k < 0 then invalid_arg (Printf.sprintf "Fault: negative %s count" what);
  if k > universe then
    invalid_arg
      (Printf.sprintf "Fault: cannot sample %d distinct %ss from %d" k what universe);
  let ids = Array.init universe Fun.id in
  Rng.shuffle_in_place rng ids;
  Array.to_list (Array.sub ids 0 k)

let random_link_kills rng topo k =
  List.map
    (fun id -> Kill_link id)
    (sample_distinct rng ~universe:(Topology.num_links topo) ~what:"link" k)

let random_npu_kills rng topo k =
  List.map
    (fun v -> Kill_npu v)
    (sample_distinct rng ~universe:(Topology.num_npus topo) ~what:"NPU" k)

let random_degradations rng ~factor topo k =
  Result.iter_error
    (fun e -> invalid_arg ("Fault.random_degradations: " ^ e))
    (check_factor factor);
  List.map
    (fun id -> Degrade_link { link = id; factor })
    (sample_distinct rng ~universe:(Topology.num_links topo) ~what:"link" k)

let random_connected_link_kills rng topo k =
  let rec try_once i =
    if i >= 64 then None
    else
      let faults = random_link_kills rng topo k in
      if Topology.is_strongly_connected (apply topo faults) then Some faults
      else try_once (i + 1)
  in
  try_once 0
