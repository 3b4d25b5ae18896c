(* Namespaces of the substrate libraries. *)
open Tacos_topology

let lowercase = String.lowercase_ascii

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
    | Ok bw, Ok alpha -> Link.of_bandwidth ~alpha bw
    | Error e, _ | _, Error e -> fail lineno "%s" e
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
          | Some n when n > 0 -> topo := Some (Topology.create ~name n)
          | _ -> fail lineno "bad NPU count %S" count)
        | "npus" :: _, Some _ -> fail lineno "duplicate npus directive"
        | _, None -> fail lineno "the first directive must be: npus N"
        | [ "link"; a; b; bw; alpha ], Some t ->
          let link = require_link lineno bw alpha in
          ignore
            (Topology.add_link t ~src:(require_npu lineno t a)
               ~dst:(require_npu lineno t b) link)
        | [ "bilink"; a; b; bw; alpha ], Some t ->
          let link = require_link lineno bw alpha in
          Topology.add_bidir t (require_npu lineno t a) (require_npu lineno t b) link
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
  let with_dims f = Result.map f (parse_dims arg) in
  let with_int f =
    match int_of_string_opt arg with
    | Some n when n > 1 -> Ok (f n)
    | _ -> Error (Printf.sprintf "%s needs an integer size, got %S" kind arg)
  in
  match kind with
  | "ring" -> with_int (fun n -> Builders.ring ~link n)
  | "uniring" -> with_int (fun n -> Builders.ring ~link ~bidirectional:false n)
  | "fc" | "fullyconnected" -> with_int (fun n -> Builders.fully_connected ~link n)
  | "mesh" -> with_dims (fun dims -> Builders.mesh ~link dims)
  | "torus" -> with_dims (fun dims -> Builders.torus ~link dims)
  | "hypercube" | "hc" -> with_int (fun k -> Builders.hypercube ~link k)
  | "switch" -> with_int (fun n -> Builders.switch ~link ~degree:1 n)
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
        | [| g; m |] -> Ok (build (g, m))
        | _ -> Error "dragonfly expects GROUPSxMEMBERS, e.g. 4x5")
  | "file" ->
    if arg = "" then Error "file: needs a path, e.g. file:cluster.topo"
    else parse_topology_file arg
  | "rfs" ->
    Result.bind (parse_dims arg) (function
      | [| r; f; s |] -> Ok (Builders.rfs3d ~alpha ~bw:(bw, bw /. 2., bw /. 4.) (r, f, s))
      | _ -> Error "rfs expects RxFxS, e.g. 2x4x8")
  | _ -> Error (Printf.sprintf "unknown topology %S" s)

let parse_topology ?(alpha = 0.5e-6) ?(bw = 50e9) s =
  if not (Float.is_finite alpha && alpha >= 0.) then
    Error
      (Printf.sprintf "link latency must be finite and non-negative, got %s"
         (Tacos_util.Units.time_pp alpha))
  else
    match Link.of_bandwidth ~alpha bw with
    | exception Invalid_argument _ ->
      Error
        (Printf.sprintf "link bandwidth must be positive, got %s"
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
