(* Namespaces of the substrate libraries. *)
open Tacos_topology

type t = {
  gid : int;
  members : int array;
  topo : Topology.t;
  link_map : int array;
}

(* The induced sub-topology: every global link with both endpoints in
   [members], remapped to local ranks, added in canonical order. [name]
   defaults to ["<topo>/g<gid>"]. *)
let extract ?name topo ~gid members =
  let n = Array.length members in
  if n = 0 then invalid_arg "Group.extract: empty member set";
  let num = Topology.num_npus topo in
  let local = Hashtbl.create n in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= num then
        invalid_arg (Printf.sprintf "Group.extract: NPU %d out of range" v);
      if Hashtbl.mem local v then
        invalid_arg (Printf.sprintf "Group.extract: duplicate member %d" v);
      Hashtbl.add local v i)
    members;
  (* The induced links, read from the members' out-links, in canonical
     order: (src, dst, α, β, global id). The order is total, so it does not
     depend on the order links are read in. Fingerprints ignore link ids,
     so isomorphic groups must also *number* their links identically for
     one group's schedule to be composed into another. *)
  let induced =
    Array.to_list members
    |> List.concat_map (fun v ->
           let s = Hashtbl.find local v in
           List.filter_map
             (fun (e : Topology.edge) ->
               match Hashtbl.find_opt local e.dst with
               | Some d ->
                 let alpha = Link.cost e.link 0. in
                 let beta = Link.cost e.link 1. -. alpha in
                 Some (s, d, alpha, beta, e)
               | None -> None)
             (Topology.out_edges topo v))
    |> List.sort (fun (s1, d1, a1, b1, (e1 : Topology.edge)) (s2, d2, a2, b2, e2) ->
           compare (s1, d1, a1, b1, e1.id) (s2, d2, a2, b2, e2.id))
  in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s/g%d" (Topology.name topo) gid
  in
  let sub = Topology.create ~name n in
  let link_map = Array.make (List.length induced) (-1) in
  List.iter
    (fun (s, d, _, _, (e : Topology.edge)) ->
      let id = Topology.add_link sub ~src:s ~dst:d e.link in
      link_map.(id) <- e.id)
    induced;
  { gid; members; topo = sub; link_map }

let of_dim topo ~dim =
  match Topology.hierarchy topo with
  | None -> invalid_arg "Group.of_dim: topology records no hierarchy"
  | Some dims ->
    if dim < 0 || dim >= Array.length dims then
      invalid_arg (Printf.sprintf "Group.of_dim: dimension %d out of range" dim);
    let g = dims.(dim).Topology.size in
    let n = Topology.num_npus topo in
    if g < 2 || n / g < 2 then
      invalid_arg
        (Printf.sprintf "Group.of_dim: dimension %d gives a degenerate %dx%d split"
           dim g (n / g));
    let buckets = Array.make g [] in
    for v = n - 1 downto 0 do
      let c = (Topology.coords topo v).(dim) in
      buckets.(c) <- v :: buckets.(c)
    done;
    List.init g (fun gi -> extract topo ~gid:gi (Array.of_list buckets.(gi)))

let of_partition topo parts =
  if parts = [] then invalid_arg "Group.of_partition: empty partition";
  List.mapi (fun gi members -> extract topo ~gid:gi members) parts

let slices topo groups =
  match groups with
  | [] -> []
  | g0 :: _ ->
    List.init (Array.length g0.members) (fun r ->
        let members = Array.of_list (List.map (fun g -> g.members.(r)) groups) in
        extract topo ~gid:r
          ~name:(Printf.sprintf "%s/s%d" (Topology.name topo) r)
          members)

let validate topo groups =
  let ( let* ) = Result.bind in
  let* () =
    if List.length groups >= 2 then Ok ()
    else Error "need at least two groups"
  in
  let sizes = List.map (fun g -> Array.length g.members) groups in
  let m = List.hd sizes in
  let* () =
    if List.for_all (( = ) m) sizes then Ok ()
    else Error "groups have unequal sizes"
  in
  let* () =
    if m >= 2 then Ok ()
    else Error "groups need at least two members each"
  in
  let n = Topology.num_npus topo in
  let seen = Array.make n false in
  let* () =
    List.fold_left
      (fun acc g ->
        let* () = acc in
        Array.fold_left
          (fun acc v ->
            let* () = acc in
            if seen.(v) then Error (Printf.sprintf "NPU %d appears twice" v)
            else begin
              seen.(v) <- true;
              Ok ()
            end)
          (Ok ()) g.members)
      (Ok ()) groups
  in
  let* () =
    match Array.to_list (Array.mapi (fun v s -> (v, s)) seen)
          |> List.find_opt (fun (_, s) -> not s)
    with
    | Some (v, _) -> Error (Printf.sprintf "NPU %d belongs to no group" v)
    | None -> Ok ()
  in
  (* Every group and every slice hosts a sub-collective, so each induced
     fabric must be strongly connected on its own. *)
  let connected what (g : t) =
    if Topology.is_strongly_connected g.topo then Ok ()
    else
      Error
        (Printf.sprintf "%s %d (NPUs %s) is not strongly connected" what g.gid
           (String.concat ","
              (List.map string_of_int (Array.to_list g.members))))
  in
  let* () =
    List.fold_left
      (fun acc g -> let* () = acc in connected "group" g)
      (Ok ()) groups
  in
  List.fold_left
    (fun acc s -> let* () = acc in connected "slice" s)
    (Ok ()) (slices topo groups)

let auto_dim topo =
  match Topology.hierarchy topo with
  | None -> None
  | Some dims ->
    let n = Topology.num_npus topo in
    (* Per-NPU per-byte time of each dimension's aggregated links: the
       slowest dimension is the cut that bounds the collective, so it gets
       the (cheap, low-volume) inter phase and the fast dimensions stay
       inside the groups. *)
    let score (d : Topology.dim) =
      let beta = Link.cost d.link 1. -. Link.cost d.link 0. in
      let lanes =
        match d.kind with
        | Topology.Ring_dim -> min 2 (d.size - 1)
        | Topology.Mesh_dim -> 1
        | Topology.Fully_connected_dim -> d.size - 1
        | Topology.Switch_dim _ -> 1
      in
      beta /. float_of_int (max 1 lanes)
    in
    Array.to_list (Array.mapi (fun i d -> (i, d)) dims)
    |> List.filter (fun (_, (d : Topology.dim)) -> d.size >= 2 && n / d.size >= 2)
    |> List.fold_left
         (fun best (i, d) ->
           match best with
           | None -> Some (i, d)
           | Some (_, b) when score d > score b -> Some (i, d)
           | Some (_, b)
             when score d = score b && d.Topology.size > b.Topology.size ->
             Some (i, d)
           | Some _ -> best)
         None
    |> Option.map fst

let fingerprint g = Tacos.Registry.fingerprint g.topo
