(* Mutation fuzzing of the hand-written parsers. Each property takes valid
   seed inputs, applies a few byte-level mutations (insert, delete,
   replace, truncate, splice in a number), and requires the parser to
   return a value or an [Error] — never to raise. *)

open Tacos_collective
module Json = Tacos_util.Json
module Logfmt = Tacos_util.Logfmt
module Expo = Tacos_obs.Expo
module Protocol = Tacos_serve.Protocol
module Sketch = Tacos_sketch.Sketch

(* Bytes a mutation inserts: mostly the parsers' own syntax, which reaches
   deeper than noise does, sometimes any byte. *)
let syntax = "{}[]\":,\\ =#\n.-+eE0123456789xXnsuGMKB/_"

let byte =
  QCheck.Gen.(
    frequency
      [
        (3, map (String.get syntax) (int_bound (String.length syntax - 1)));
        (1, map Char.chr (int_bound 255));
      ])

(* A number to splice in: small, or far above any size bound, so that no
   mutated input asks for a large allocation that could succeed. *)
let number =
  QCheck.Gen.(
    oneof
      [
        map string_of_int (int_bound 64);
        map (fun k -> string_of_int (1 lsl k)) (int_range 40 61);
        return (string_of_int max_int);
        return "99999999999999999999";
      ])

let mutate s =
  let open QCheck.Gen in
  let n = String.length s in
  let* pos = int_bound n in
  let before = String.sub s 0 pos and after = String.sub s pos (n - pos) in
  let rest = if pos < n then String.sub s (pos + 1) (n - pos - 1) else "" in
  frequency
    [
      (3, map (fun c -> before ^ String.make 1 c ^ after) byte);
      (3, return (before ^ rest));
      (3, map (fun c -> if pos < n then before ^ String.make 1 c ^ rest else s) byte);
      (1, return before);
      (1, map (fun num -> before ^ num ^ after) number);
    ]

let mutated seeds =
  QCheck.Gen.(
    let* seed = oneofl seeds in
    let* rounds = int_range 1 8 in
    let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
    go rounds seed)

(* No shrinker: a failing input is reported as drawn. *)
let never_raises name seeds parse =
  QCheck.Test.make ~name ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") (mutated seeds))
    (fun input ->
      match parse input with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" input (Printexc.to_string e))

let json_seeds =
  [
    {|{"a": [1, 2.5e3, -0, true, false, null], "b": "sé\n\"q\"", "c": {}}|};
    {|[[], {"k": [{"x": -1.5E-7}]}, "tail"]|};
    {|"just a string"|};
    "12345";
    {|{"id": "caf\u00e9", "pair": "\ud83d\ude00", "nul": "\u0000"}|};
  ]

let request_seeds =
  [
    {|{"id":1,"op":"synthesize","topology":"mesh:3x3","pattern":"all-reduce","size":"16MB","chunks":2,"deadline_ms":500,"fail_links":[3],"seed":7}|};
    {|{"id":"a","op":"tune","topology":"ring:8","size":1048576,"candidates":[1,2,4]}|};
    {|{"op":"export","topology":"torus:2x2","format":"csv"}|};
    {|{"op":"synthesize","topology":"mesh:2x2","sketch":{"name":"s","rules":[{"forbid":3},{"prefer":1,"weight":4}]}}|};
    {|{"op":"metrics","prefix":"tacos_serve_"}|};
    {|{"op":"ping"}|};
    {|{"op":"stats"}|};
  ]

let sketch_seeds =
  [
    {|{ "name": "no-slow-link",
        "rules": [ { "forbid": 3 },
                   { "prefer": 5, "weight": 4 },
                   { "pin": { "chunk": 0, "route": [1, 2] } },
                   { "buddy": { "dim": 1 } } ] }|};
    {|{"rules": []}|};
  ]

let logfmt_seeds =
  [
    {|t=0.5 op=synthesize topology=mesh:3x3 status=ok elapsed_ms=0.25|};
    {|msg="a \"quoted\" value\n" empty="" k=v|};
  ]

let expo_seeds =
  [
    String.concat "\n"
      [
        "# HELP tacos_serve_hits_total Cache hits.";
        "# TYPE tacos_serve_hits_total counter";
        "tacos_serve_hits_total 3";
        "# HELP tacos_serve_latency_ms Request latency.";
        "# TYPE tacos_serve_latency_ms histogram";
        {|tacos_serve_latency_ms_bucket{le="0.5"} 1|};
        {|tacos_serve_latency_ms_bucket{le="+Inf"} 2|};
        "tacos_serve_latency_ms_sum 1.25";
        "tacos_serve_latency_ms_count 2";
        "# TYPE tacos_q summary";
        {|tacos_q{quantile="0.5",op="a\"b"} 0.1|};
        "tacos_q_sum 1";
        "tacos_q_count 3";
        "";
      ];
  ]

(* The last two headers are past the NPU bound: before it, they ended in
   [Out_of_memory] and [Invalid_argument "Array.make"]. *)
let topology_seeds =
  [
    "npus 4\nring 0 1 2 3 50GB/s 0.5us\nbilink 0 2 25GB/s 1us\nlink 1 3 10GB/s 2us\n";
    "# comment\nnpus 2\nlink 0 1 100GB/s 0.7us # trailing\n";
    "npus 1000000000000\nlink 0 1 50GB/s 0.5us\n";
    "npus 4611686018427387903\nring 0 1 2 50GB/s 1us\n";
  ]

let topology_lines s = Parse.parse_topology_lines (String.split_on_char '\n' s)
let size_seeds = [ "64MB"; "1GB"; "512KB"; "100B"; "4096"; "1.5e3KB" ]
let time_seeds = [ "0.5us"; "30ns"; "2ms"; "1s"; "0.25" ]

(* The seeds themselves are valid, so the mutations start from inputs that
   reach every parser's accepting paths. *)
let test_seeds_parse () =
  let all_ok what parse seeds =
    List.iter
      (fun s ->
        match parse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s seed %S rejected: %s" what s e)
      seeds
  in
  all_ok "json" Json.parse json_seeds;
  all_ok "request" (fun s -> Result.map_error snd (Protocol.parse_request s)) request_seeds;
  all_ok "sketch" Sketch.of_json sketch_seeds;
  all_ok "logfmt" Logfmt.parse logfmt_seeds;
  all_ok "expo" Expo.validate expo_seeds;
  all_ok "topology" topology_lines (List.filteri (fun i _ -> i < 2) topology_seeds);
  all_ok "size" Parse.parse_size size_seeds;
  all_ok "time" Parse.parse_time time_seeds

let () =
  Alcotest.run "fuzz"
    [
      ("seeds", [ Alcotest.test_case "seeds parse" `Quick test_seeds_parse ]);
      ( "parsers",
        List.map QCheck_alcotest.to_alcotest
          [
            never_raises "Json.parse" json_seeds Json.parse;
            never_raises "Protocol.parse_request" request_seeds Protocol.parse_request;
            never_raises "Sketch.of_json" sketch_seeds Sketch.of_json;
            never_raises "Logfmt.parse" logfmt_seeds Logfmt.parse;
            never_raises "Expo.validate" expo_seeds Expo.validate;
            never_raises "Parse.parse_topology_lines" topology_seeds topology_lines;
            never_raises "Parse.parse_size" size_seeds Parse.parse_size;
            never_raises "Parse.parse_time" time_seeds Parse.parse_time;
          ] );
    ]
