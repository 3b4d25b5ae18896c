(* Namespaces of the substrate libraries. *)
open Tacos_topology

let lowercase = String.lowercase_ascii

(* The largest fabric a description may ask for: at about 112 bytes per
   directed link, 2^24 links stay under 2 GB, far above the paper's
   fabrics (at most 1,024 NPUs). Past the bounds, building would end in
   [Out_of_memory], so sizes are computed and refused before allocating. *)
let max_npus = 1 lsl 20
let max_links = 1 lsl 24

(* [a * b] for non-negative ints, saturating at [max_int]. *)
let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b

let too_large count unit bound =
  Printf.sprintf "%s %s, over the bound of %d"
    (if count = max_int then Printf.sprintf "%d or more" count else string_of_int count)
    unit bound

(* Refuse a fabric of [npus] NPUs past the bounds, then one of [links ()]
   links; the link count is only computed once [npus] is in bounds, where
   it cannot overflow. *)
let bounded desc ~npus ~links build =
  let refuse count unit bound = Error (desc ^ ": " ^ too_large count unit bound) in
  if npus > max_npus then refuse npus "NPUs" max_npus
  else
    let links = links () in
    if links > max_links then refuse links "links" max_links else Ok (build ())

(* "4x4x4" -> [|4;4;4|] *)
let parse_dims s =
  let parts = String.split_on_char 'x' s in
  match List.map int_of_string_opt parts with
  | dims when List.for_all Option.is_some dims && dims <> [] -> (
    let dims = Array.of_list (List.map Option.get dims) in
    match Array.find_opt (fun d -> d < 1) dims with
    | Some d -> Error (Printf.sprintf "dimension %d in %S must be at least 1" d s)
    | None -> Ok dims)
  | _ -> Error (Printf.sprintf "cannot parse dimensions %S (expected e.g. 4x4)" s)

(* Sizes like "1GB", "64MB", "512KB", "100B", "4194304". *)
let parse_size s =
  let s = String.trim (String.uppercase_ascii s) in
  let split suffix factor =
    if String.length s > String.length suffix
       && String.sub s (String.length s - String.length suffix) (String.length suffix)
          = suffix
    then
      let num = String.sub s 0 (String.length s - String.length suffix) in
      Option.map (fun v -> v *. factor) (float_of_string_opt num)
    else None
  in
  let candidates =
    [ ("GB", 1e9); ("MB", 1e6); ("KB", 1e3); ("B", 1.) ]
  in
  let rec try_all = function
    | [] -> Option.map Fun.id (float_of_string_opt s)
    | (suffix, factor) :: rest -> (
      match split suffix factor with Some v -> Some v | None -> try_all rest)
  in
  match try_all candidates with
  | Some v when v > 0. && Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "cannot parse size %S (expected e.g. 64MB)" s)

(* Topology descriptions:
     ring:8  fc:16  mesh:4x4  torus:4x4x4  hypercube:3  switch:16
     dgx1  dragonfly:4x5  rfs:2x4x8
   Link parameters come from [alpha] (seconds) and [bw] (bytes/s); the
   heterogeneous builders (dragonfly, rfs) scale their per-dimension
   bandwidths relative to [bw]. *)
let parse_time s =
  let s = lowercase (String.trim s) in
  let with_suffix suffix factor =
    if
      String.length s > String.length suffix
      && String.sub s (String.length s - String.length suffix) (String.length suffix)
         = suffix
    then
      Option.map
        (fun v -> v *. factor)
        (float_of_string_opt (String.sub s 0 (String.length s - String.length suffix)))
    else None
  in
  let candidates = [ ("ns", 1e-9); ("us", 1e-6); ("ms", 1e-3); ("s", 1.) ] in
  let rec try_all = function
    | [] -> float_of_string_opt s
    | (suffix, factor) :: rest -> (
      match with_suffix suffix factor with Some v -> Some v | None -> try_all rest)
  in
  match try_all candidates with
  | Some v when v >= 0. && Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "cannot parse duration %S (expected e.g. 0.5us)" s)

(* Bandwidths like "50GB/s" (or a plain bytes-per-second number). *)
let parse_bandwidth s =
  let s = String.trim s in
  let body =
    if String.length s > 2 && String.sub s (String.length s - 2) 2 = "/s" then
      String.sub s 0 (String.length s - 2)
    else s
  in
  match parse_size body with
  | Ok v -> Ok v
  | Error _ -> Error (Printf.sprintf "cannot parse bandwidth %S (expected e.g. 50GB/s)" s)

let parse_topology_lines ?(name = "custom") lines =
  let exception Bad of string in
  let fail line fmt =
    Printf.ksprintf (fun msg -> raise (Bad (Printf.sprintf "line %d: %s" line msg))) fmt
  in
  let strip_comment l =
    match String.index_opt l '#' with
    | Some i -> String.sub l 0 i
    | None -> l
  in
  let tokens_of l =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim (strip_comment l)))
  in
  let require_link lineno bw_str alpha_str =
    match (parse_bandwidth bw_str, parse_time alpha_str) with
    | Ok bw, Ok alpha -> (
      (* A bandwidth so small that its β overflows, e.g. 1e-320B/s. *)
      match Link.of_bandwidth ~alpha bw with
      | link -> link
      | exception Invalid_argument _ -> fail lineno "bandwidth %S is too small" bw_str)
    | Error e, _ | _, Error e -> fail lineno "%s" e
  in
  let require_distinct lineno a b =
    if a = b then fail lineno "a link from NPU %d to itself" a
  in
  let require_npu lineno topo token =
    match int_of_string_opt token with
    | Some v when v >= 0 && v < Topology.num_npus topo -> v
    | _ -> fail lineno "bad NPU id %S" token
  in
  try
    let topo = ref None in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        match (tokens_of line, !topo) with
        | [], _ -> ()
        | [ "npus"; count ], None -> (
          match int_of_string_opt count with
          | Some n when n > max_npus -> fail lineno "%s" (too_large n "NPUs" max_npus)
          | Some n when n > 0 -> topo := Some (Topology.create ~name n)
          | _ -> fail lineno "bad NPU count %S" count)
        | "npus" :: _, Some _ -> fail lineno "duplicate npus directive"
        | _, None -> fail lineno "the first directive must be: npus N"
        | [ "link"; a; b; bw; alpha ], Some t ->
          let link = require_link lineno bw alpha in
          let a = require_npu lineno t a and b = require_npu lineno t b in
          require_distinct lineno a b;
          ignore (Topology.add_link t ~src:a ~dst:b link)
        | [ "bilink"; a; b; bw; alpha ], Some t ->
          let link = require_link lineno bw alpha in
          let a = require_npu lineno t a and b = require_npu lineno t b in
          require_distinct lineno a b;
          Topology.add_bidir t a b link
        | "ring" :: rest, Some t when List.length rest >= 4 ->
          (* ring n0 n1 ... nk BW ALPHA *)
          let rec split_last2 = function
            | [ bw; alpha ] -> ([], bw, alpha)
            | x :: rest ->
              let members, bw, alpha = split_last2 rest in
              (x :: members, bw, alpha)
            | [] -> fail lineno "ring needs members and link parameters"
          in
          let members, bw, alpha = split_last2 rest in
          if List.length members < 2 then fail lineno "ring needs at least two NPUs";
          let link = require_link lineno bw alpha in
          let ids = List.map (require_npu lineno t) members in
          let arr = Array.of_list ids in
          let n = Array.length arr in
          for i = 0 to n - 1 do
            let a = arr.(i) and b = arr.((i + 1) mod n) in
            require_distinct lineno a b;
            if n = 2 && i = 1 then () else Topology.add_bidir t a b link
          done
        | tok :: _, Some _ -> fail lineno "unknown directive %S" tok)
      lines;
    match !topo with
    | Some t when Topology.num_links t > 0 -> Ok t
    | Some _ -> Error "topology has no links"
    | None -> Error "empty description (expected: npus N)"
  with Bad msg -> Error msg

let parse_topology_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
    parse_topology_lines ~name:(Filename.basename path)
      (String.split_on_char '\n' contents)
  | exception Sys_error e -> Error e

let build_topology ~alpha ~bw link s =
  let s = String.trim s in
  (* Only the kind is case-insensitive; the argument may be a file path. *)
  let kind, arg =
    match String.index_opt s ':' with
    | Some i ->
      (lowercase (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
    | None -> (lowercase s, "")
  in
  (* An integer-sized fabric of [npus n] NPUs and [links n] links. *)
  let with_int npus links build =
    match int_of_string_opt arg with
    | Some n when n > 1 ->
      bounded s ~npus:(npus n) ~links:(fun () -> links n) (fun () -> build n)
    | _ -> Error (Printf.sprintf "%s needs an integer size, got %S" kind arg)
  in
  (* A hierarchical fabric has the product of its dimensions as NPUs, and
     its dimension [i] of size [d] holds [npus / d] groups of
     [per_group i d] links each. *)
  let hierarchical dims per_group build =
    let npus = Array.fold_left mul_sat 1 dims in
    let links () =
      Array.fold_left ( + ) 0 (Array.mapi (fun i d -> npus / d * per_group i d) dims)
    in
    bounded s ~npus ~links (fun () -> build dims)
  in
  let with_dims per_group build =
    Result.bind (parse_dims arg) (fun dims -> hierarchical dims (fun _ -> per_group) build)
  in
  let ring_links d = if d = 1 then 0 else if d = 2 then 2 else 2 * d in
  match kind with
  | "ring" -> with_int Fun.id ring_links (Builders.ring ~link)
  | "uniring" -> with_int Fun.id Fun.id (Builders.ring ~link ~bidirectional:false)
  | "fc" | "fullyconnected" ->
    with_int Fun.id (fun n -> n * (n - 1)) (Builders.fully_connected ~link)
  | "mesh" -> with_dims (fun d -> 2 * (d - 1)) (Builders.mesh ~link)
  | "torus" -> with_dims ring_links (Builders.torus ~link)
  | "hypercube" | "hc" ->
    (* 2^k NPUs, saturating past k = 61 as the dimension product does. *)
    let pow2 k = if k < Sys.int_size - 1 then 1 lsl k else max_int in
    with_int pow2 (fun k -> k lsl k) (Builders.hypercube ~link)
  | "switch" -> with_int Fun.id Fun.id (Builders.switch ~link ~degree:1)
  | "dgx1" -> Ok (Builders.dgx1 ~link ())
  | "dragonfly" | "df" ->
    let build (groups, group_size) =
      Builders.dragonfly ~alpha ~groups ~group_size ~bw:(bw, bw /. 2.) ()
    in
    if arg = "" then Ok (build (4, 5))
    else
      Result.bind (parse_dims arg) (function
        | [| g; m |] when m < g - 1 ->
          (* Each member hosts at most one global link. *)
          Error
            (Printf.sprintf "dragonfly:%dx%d needs at least %d members per group" g m
               (g - 1))
        | [| g; m |] ->
          let links () = (g * m * (m - 1)) + (g * (g - 1)) in
          bounded s ~npus:(mul_sat g m) ~links (fun () -> build (g, m))
        | _ -> Error "dragonfly expects GROUPSxMEMBERS, e.g. 4x5")
  | "file" ->
    if arg = "" then Error "file: needs a path, e.g. file:cluster.topo"
    else parse_topology_file arg
  | "rfs" ->
    Result.bind (parse_dims arg) (function
      | [| r; f; s |] as dims ->
        (* Ring, fully connected, then a degree-1 switch. *)
        let per_group i d =
          [| ring_links d; d * (d - 1); (if d > 1 then d else 0) |].(i)
        in
        hierarchical dims per_group (fun _ ->
            Builders.rfs3d ~alpha ~bw:(bw, bw /. 2., bw /. 4.) (r, f, s))
      | _ -> Error "rfs expects RxFxS, e.g. 2x4x8")
  | _ -> Error (Printf.sprintf "unknown topology %S" s)

let parse_topology ?(alpha = 0.5e-6) ?(bw = 50e9) s =
  if not (Float.is_finite alpha && alpha >= 0.) then
    Error
      (Printf.sprintf "link latency must be finite and non-negative, got %s"
         (Tacos_util.Units.time_pp alpha))
  else if not (bw > 0.) then
    Error
      (Printf.sprintf "link bandwidth must be positive, got %s"
         (Tacos_util.Units.bandwidth_pp bw))
  else
    (* A positive bandwidth so small that its β overflows, e.g. 1e-320 GB/s. *)
    match Link.of_bandwidth ~alpha bw with
    | exception Invalid_argument _ ->
      Error
        (Printf.sprintf "link bandwidth %s is too small"
           (Tacos_util.Units.bandwidth_pp bw))
    | link -> build_topology ~alpha ~bw link s

let parse_pattern s npus =
  let open Pattern in
  let s = lowercase (String.trim s) in
  let rooted make arg =
    match int_of_string_opt arg with
    | Some r when r >= 0 && r < npus -> Ok (make r)
    | _ -> Error (Printf.sprintf "bad root in %S" s)
  in
  match String.split_on_char ':' s with
  | [ "all-gather" ] | [ "allgather" ] | [ "ag" ] -> Ok All_gather
  | [ "reduce-scatter" ] | [ "reducescatter" ] | [ "rs" ] -> Ok Reduce_scatter
  | [ "all-reduce" ] | [ "allreduce" ] | [ "ar" ] -> Ok All_reduce
  | [ "all-to-all" ] | [ "alltoall" ] | [ "a2a" ] -> Ok All_to_all
  | [ "broadcast"; r ] | [ "bc"; r ] -> rooted (fun r -> Broadcast r) r
  | [ "broadcast" ] | [ "bc" ] -> Ok (Broadcast 0)
  | [ "reduce"; r ] -> rooted (fun r -> Reduce r) r
  | [ "reduce" ] -> Ok (Reduce 0)
  | _ -> Error (Printf.sprintf "unknown pattern %S" s)
