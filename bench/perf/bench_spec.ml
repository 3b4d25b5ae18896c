(* The benchmark's declaration in BENCHMARK.json: its workloads and the
   metrics it reports, with each end-to-end metric's direction and the
   share of the parent's median by which it may get worse. *)

module Json = Tacos_util.Json

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let str k doc = Option.bind (Json.member k doc) Json.to_string

let list k doc =
  match Option.bind (Json.member k doc) Json.to_list with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "missing %S list" k)

let metric doc =
  match (str "name" doc, str "unit" doc) with
  | Some name, Some unit_ ->
    Ok
      {
        name;
        unit_;
        lower_better = str "better" doc <> Some "higher";
        bound = Option.value ~default:0. (Option.bind (Json.member "bound" doc) Json.to_float);
      }
  | _ -> Error "a metric without name or unit"

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let load file =
  let* text =
    try Ok (In_channel.with_open_text file In_channel.input_all) with Sys_error e -> Error e
  in
  let* doc = Result.map_error (fun e -> file ^ ": " ^ e) (Json.parse text) in
  let* workloads = list "workloads" doc in
  let* end_to_end = Result.bind (list "end_to_end" doc) (all metric) in
  let* per_layer = Result.bind (list "per_layer" doc) (all metric) in
  Ok
    {
      workloads = List.map (fun w -> Option.value ~default:"" (str "name" w)) workloads;
      end_to_end;
      per_layer;
    }
