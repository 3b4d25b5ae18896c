module Json = Tacos_util.Json
module Parse = Tacos_collective.Parse
module Sketch = Tacos_sketch.Sketch

type op = Synthesize | Tune | Export | Ping | Stats | Metrics

type request = {
  id : Json.t;
  op : op;
  topology : string option;
  pattern : string;
  size : float;
  chunks : int;
  seed : int option;
  deadline_ms : float option;
  fail_links : int list;
  candidates : int list option;
  sketch : Sketch.t option;
  format : [ `Json | `Csv ];
  prefix : string option;
}

(* Binding-operator sugar for the field-by-field validation below: each
   step either extracts a value or short-circuits with the message that
   goes straight into the error response. *)
let ( let* ) = Result.bind

let int_list doc name =
  match Json.member name doc with
  | None -> Ok None
  | Some (Json.Array xs) ->
    let rec ints acc = function
      | [] -> Ok (Some (List.rev acc))
      | x :: rest -> (
        match Json.to_int x with
        | Some i -> ints (i :: acc) rest
        | None -> Error (name ^ " must be an array of integers"))
    in
    ints [] xs
  | Some _ -> Error (name ^ " must be an array of integers")

let parse_request line =
  match Json.parse line with
  | Error e -> Error (Json.Null, "not JSON: " ^ e)
  | Ok (Json.Object _ as doc) -> (
    let id = Option.value ~default:Json.Null (Json.member "id" doc) in
    let str name = Option.bind (Json.member name doc) Json.to_string in
    let parsed =
      let* op =
        match str "op" with
        | None -> (
          match Json.member "op" doc with
          | None -> Error "missing op"
          | Some _ -> Error "op must be a string")
        | Some "synthesize" -> Ok Synthesize
        | Some "tune" -> Ok Tune
        | Some "export" -> Ok Export
        | Some "ping" -> Ok Ping
        | Some "stats" -> Ok Stats
        | Some "metrics" -> Ok Metrics
        | Some other -> Error ("unknown op: " ^ other)
      in
      let* size =
        match Json.member "size" doc with
        | None -> Ok 1e6
        | Some (Json.Number b) when b > 0. && Float.is_finite b -> Ok b
        | Some (Json.String s) -> Parse.parse_size s
        | Some _ -> Error "size must be finite positive bytes or a size string"
      in
      let* chunks =
        match Json.member "chunks" doc with
        | None -> Ok 1
        | Some j -> (
          match Json.to_int j with
          | Some c when c > 0 -> Ok c
          | _ -> Error "chunks must be a positive integer")
      in
      let* seed =
        match Json.member "seed" doc with
        | None -> Ok None
        | Some j -> (
          match Json.to_int j with
          | Some s -> Ok (Some s)
          | None -> Error "seed must be an integer")
      in
      let* deadline_ms =
        match Json.member "deadline_ms" doc with
        | None -> Ok None
        | Some j -> (
          match Json.to_float j with
          | Some d -> Ok (Some d)
          | None -> Error "deadline_ms must be a number")
      in
      let* fail_links = int_list doc "fail_links" in
      let* candidates = int_list doc "candidates" in
      let* sketch =
        match Json.member "sketch" doc with
        | None -> Ok None
        | Some j -> (
          match Sketch.of_json_value j with
          | Ok s -> Ok (Some s)
          | Error e -> Error ("sketch: " ^ e))
      in
      let* format =
        match str "format" with
        | None | Some "json" -> Ok `Json
        | Some "csv" -> Ok `Csv
        | Some other -> Error ("unknown format: " ^ other)
      in
      let* prefix =
        match Json.member "prefix" doc with
        | None -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> Error "prefix must be a string"
      in
      Ok
        {
          id;
          op;
          topology = str "topology";
          pattern = Option.value ~default:"all-gather" (str "pattern");
          size;
          chunks;
          seed;
          deadline_ms;
          fail_links = Option.value ~default:[] fail_links;
          candidates;
          sketch;
          format;
          prefix;
        }
    in
    match parsed with Ok r -> Ok r | Error msg -> Error (id, msg))
  | Ok _ -> Error (Json.Null, "request must be a JSON object")

let response ~id ~status fields =
  Json.encode
    (Json.Object (("id", id) :: ("status", Json.String status) :: fields))
