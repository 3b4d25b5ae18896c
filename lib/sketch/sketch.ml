(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
module Json = Tacos_util.Json
module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

type rule =
  | Forbid_link of int
  | Prefer_link of { link : int; weight : float }
  | Pin_path of { chunk : int; route : int list }
  | Buddy of { dim : int }

type t = { name : string option; rules : rule list }

let make ?name rules = { name; rules }
let empty = { name = None; rules = [] }

type offender =
  | Unknown_link of { rule : string; link : int }
  | Unknown_chunk of { chunk : int; num_chunks : int }
  | Bad_weight of { link : int; weight : float }
  | Empty_route of { chunk : int }
  | Forbid_pin_conflict of { chunk : int; link : int }
  | No_hierarchy of { dim : int }
  | Unsupported_pattern of string
  | Disconnected of { chunk : int; npu : int }

let offender_to_string = function
  | Unknown_link { rule; link } ->
    Printf.sprintf "%s rule names unknown link %d" rule link
  | Unknown_chunk { chunk; num_chunks } ->
    Printf.sprintf "pin rule names chunk %d, but the spec has %d chunks"
      chunk num_chunks
  | Bad_weight { link; weight } ->
    Printf.sprintf "prefer rule on link %d has non-positive weight %g" link
      weight
  | Empty_route { chunk } ->
    Printf.sprintf "pinned route for chunk %d is empty" chunk
  | Forbid_pin_conflict { chunk; link } ->
    Printf.sprintf
      "link %d is forbidden but also part of chunk %d's pinned route" link
      chunk
  | No_hierarchy { dim } ->
    Printf.sprintf
      "buddy rule on dimension %d, but the topology has no such hierarchy \
       dimension"
      dim
  | Unsupported_pattern p ->
    Printf.sprintf
      "sketches apply to matched patterns only; %s is synthesized by the \
       router"
      p
  | Disconnected { chunk; npu } ->
    Printf.sprintf
      "sketch disconnects the collective: no holder of chunk %d can reach \
       NPU %d"
      chunk npu

exception Infeasible of offender

let () =
  Printexc.register_printer (function
    | Infeasible off -> Some ("Sketch.Infeasible: " ^ offender_to_string off)
    | _ -> None)

(* ---------- JSON codec ---------- *)

let rule_to_json = function
  | Forbid_link link -> Json.Object [ ("forbid", Json.Number (float_of_int link)) ]
  | Prefer_link { link; weight } ->
    Json.Object
      [
        ("prefer", Json.Number (float_of_int link));
        ("weight", Json.Number weight);
      ]
  | Pin_path { chunk; route } ->
    Json.Object
      [
        ( "pin",
          Json.Object
            [
              ("chunk", Json.Number (float_of_int chunk));
              ( "route",
                Json.Array
                  (List.map (fun l -> Json.Number (float_of_int l)) route) );
            ] );
      ]
  | Buddy { dim } ->
    Json.Object
      [ ("buddy", Json.Object [ ("dim", Json.Number (float_of_int dim)) ]) ]

let to_json_value t =
  let fields =
    (match t.name with
    | Some n -> [ ("name", Json.String n) ]
    | None -> [])
    @ [ ("rules", Json.Array (List.map rule_to_json t.rules)) ]
  in
  Json.Object fields

let to_json t = Json.encode (to_json_value t)

let rule_of_json j =
  let int_field v = Json.to_int v in
  match j with
  | Json.Object _ -> (
    match
      ( Json.member "forbid" j,
        Json.member "prefer" j,
        Json.member "pin" j,
        Json.member "buddy" j )
    with
    | Some v, None, None, None -> (
      match int_field v with
      | Some link -> Ok (Forbid_link link)
      | None -> Error "forbid rule: link id must be an integer")
    | None, Some v, None, None -> (
      match (int_field v, Json.member "weight" j) with
      | Some link, Some w -> (
        match Json.to_float w with
        | Some weight -> Ok (Prefer_link { link; weight })
        | None -> Error "prefer rule: weight must be a number")
      | Some _, None -> Error "prefer rule: missing \"weight\" field"
      | None, _ -> Error "prefer rule: link id must be an integer")
    | None, None, Some v, None -> (
      match (Json.member "chunk" v, Json.member "route" v) with
      | Some c, Some r -> (
        match (int_field c, Json.to_list r) with
        | Some chunk, Some links -> (
          let route = List.filter_map int_field links in
          if List.length route <> List.length links then
            Error "pin rule: route must be a list of integer link ids"
          else Ok (Pin_path { chunk; route }))
        | None, _ -> Error "pin rule: chunk id must be an integer"
        | _, None -> Error "pin rule: route must be a list")
      | _ -> Error "pin rule: needs \"chunk\" and \"route\" fields")
    | None, None, None, Some v -> (
      match Option.bind (Json.member "dim" v) int_field with
      | Some dim -> Ok (Buddy { dim })
      | None -> Error "buddy rule: needs an integer \"dim\" field")
    | None, None, None, None ->
      Error "rule object needs exactly one of forbid/prefer/pin/buddy"
    | _ -> Error "rule object mixes several of forbid/prefer/pin/buddy")
  | _ -> Error "each rule must be a JSON object"

let of_json_value j =
  match j with
  | Json.Object _ -> (
    let name = Option.bind (Json.member "name" j) Json.to_string in
    match Json.member "rules" j with
    | None -> Error "sketch: missing \"rules\" field"
    | Some r -> (
      match Json.to_list r with
      | None -> Error "sketch: \"rules\" must be a list"
      | Some items ->
        let rec go acc = function
          | [] -> Ok { name; rules = List.rev acc }
          | item :: rest -> (
            match rule_of_json item with
            | Ok rule -> go (rule :: acc) rest
            | Error e ->
              Error
                (Printf.sprintf "sketch rule %d: %s" (List.length acc) e))
        in
        go [] items))
  | _ -> Error "sketch: expected a JSON object"

let of_json s =
  match Json.parse s with
  | Error e -> Error ("sketch: " ^ e)
  | Ok j -> of_json_value j

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_json s
  | exception Sys_error e -> Error e

let digest t = Digest.to_hex (Digest.string (to_json t))

(* ---------- Compilation ---------- *)

(* The synthesis phases a spec lowers to, each tagged with the traversal
   direction feasibility must be checked under. Matched reduction patterns
   are synthesized on the reversed topology (§IV-E), so their reachability
   runs dst-to-src over the same link ids. *)
let phases (spec : Spec.t) =
  match spec.pattern with
  | Pattern.All_gather | Pattern.Broadcast _ -> [ (`Fwd, spec) ]
  | Pattern.Reduce_scatter | Pattern.Reduce _ -> [ (`Rev, Spec.reverse spec) ]
  | Pattern.All_reduce ->
    [
      (`Rev, Spec.reverse (Spec.with_pattern spec Pattern.Reduce_scatter));
      (`Fwd, Spec.with_pattern spec Pattern.All_gather);
    ]
  | (Pattern.All_to_all | Pattern.Gather _ | Pattern.Scatter _) as p ->
    raise (Infeasible (Unsupported_pattern (Pattern.name p)))

let compile topo (spec : Spec.t) t =
  let num_links = Topology.num_links topo in
  let num_chunks = Spec.num_chunks spec in
  let check_link rule link =
    if link < 0 || link >= num_links then
      raise (Infeasible (Unknown_link { rule; link }))
  in
  let phases = phases spec in
  let forbid = ref Iset.empty in
  let prefer = ref Imap.empty in
  let pins = ref Imap.empty in
  List.iter
    (fun rule ->
      match rule with
      | Forbid_link link ->
        check_link "forbid" link;
        forbid := Iset.add link !forbid
      | Prefer_link { link; weight } ->
        check_link "prefer" link;
        if not (Float.is_finite weight && weight > 0.) then
          raise (Infeasible (Bad_weight { link; weight }));
        prefer :=
          Imap.update link
            (function None -> Some weight | Some w -> Some (w *. weight))
            !prefer
      | Pin_path { chunk; route } ->
        if chunk < 0 || chunk >= num_chunks then
          raise (Infeasible (Unknown_chunk { chunk; num_chunks }));
        List.iter (check_link "pin") route;
        if route = [] then raise (Infeasible (Empty_route { chunk }));
        let r = Iset.of_list route in
        pins :=
          Imap.update chunk
            (function None -> Some r | Some r0 -> Some (Iset.inter r0 r))
            !pins
      | Buddy { dim } -> (
        match Topology.hierarchy topo with
        | None -> raise (Infeasible (No_hierarchy { dim }))
        | Some dims ->
          if dim < 0 || dim >= Array.length dims then
            raise (Infeasible (No_hierarchy { dim }));
          (* Inter-group hops along [dim] are only allowed between
             same-rank buddies: forbid every edge whose endpoints differ
             in coordinate [dim] and in any other coordinate too. *)
          List.iter
            (fun (e : Topology.edge) ->
              let cs = Topology.coords topo e.src in
              let cd = Topology.coords topo e.dst in
              if cs.(dim) <> cd.(dim) then begin
                let crossed = ref false in
                Array.iteri
                  (fun j _ -> if j <> dim && cs.(j) <> cd.(j) then crossed := true)
                  cs;
                if !crossed then forbid := Iset.add e.id !forbid
              end)
            (Topology.edges topo)))
    t.rules;
  (* Contradictions: a pinned route crossing the forbid set, or emptied by
     intersecting pins. *)
  Imap.iter
    (fun chunk route ->
      if Iset.is_empty route then raise (Infeasible (Empty_route { chunk }));
      match Iset.choose_opt (Iset.inter route !forbid) with
      | Some link -> raise (Infeasible (Forbid_pin_conflict { chunk; link }))
      | None -> ())
    !pins;
  let c =
    {
      Tacos.Synthesizer.forbid = Iset.elements !forbid;
      prefer = Imap.bindings !prefer;
      pin = Imap.bindings (Imap.map Iset.elements !pins);
    }
  in
  (* Satisfiability: every phase's postconditions must stay reachable from
     some holder under the per-chunk allowed-link sets. *)
  let reversed = lazy (Topology.reverse topo) in
  List.iter
    (fun (dir, pspec) ->
      let fabric = match dir with `Fwd -> topo | `Rev -> Lazy.force reversed in
      match
        Tacos.Synthesizer.unreachable fabric ~dead:c.forbid ~pin:c.pin
          (Tacos.Synthesizer.goal_of_spec pspec)
      with
      | (npu, chunk) :: _ -> raise (Infeasible (Disconnected { chunk; npu }))
      | [] -> ())
    phases;
  c

let check topo spec t =
  match compile topo spec t with
  | c -> Ok c
  | exception Infeasible off -> Error off

let compliant topo spec t (schedule : Schedule.t) =
  match check topo spec t with
  | Error off -> Error (offender_to_string off)
  | Ok c ->
    let forbid = Iset.of_list c.Tacos.Synthesizer.forbid in
    let pins =
      List.fold_left
        (fun m (chunk, route) -> Imap.add chunk (Iset.of_list route) m)
        Imap.empty c.Tacos.Synthesizer.pin
    in
    let bad =
      List.find_opt
        (fun (s : Schedule.send) ->
          Iset.mem s.edge forbid
          ||
          match Imap.find_opt s.chunk pins with
          | Some route -> not (Iset.mem s.edge route)
          | None -> false)
        (Schedule.sends schedule)
    in
    (match bad with
    | None -> Ok ()
    | Some s when Iset.mem s.edge forbid ->
      Error
        (Printf.sprintf "send of chunk %d uses forbidden link %d" s.chunk
           s.edge)
    | Some s ->
      Error
        (Printf.sprintf "send of chunk %d uses link %d, off its pinned route"
           s.chunk s.edge))
