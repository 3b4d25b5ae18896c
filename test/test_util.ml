(* Tests for the utility substrate: RNG determinism and uniformity, heaps,
   growable vectors, statistics, and text rendering. *)

module Rng = Tacos_util.Rng
module Ivec = Tacos_util.Ivec
module Stats = Tacos_util.Stats
module Units = Tacos_util.Units
module Table = Tacos_util.Table
module Heatmap = Tacos_util.Heatmap

let feq = Alcotest.float 1e-9

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.bits64 child <> Rng.bits64 parent)

let test_rng_copy () =
  let a = Rng.create 99 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies continue identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_roughly_uniform () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun count ->
      let f = float_of_int count /. float_of_int samples in
      Alcotest.(check bool) "bucket near 10%" true (f > 0.08 && f < 0.12))
    buckets

(* Regression for the modulo-bias bug: [bits64 mod bound] over-weights the
   low residues whenever the 62-bit draw range is not a multiple of [bound].
   Rejection sampling makes every residue exactly equally likely, which a
   chi-square test over a non-power-of-two bound can certify: for 7 buckets
   (6 degrees of freedom) the 99.9th percentile of chi2 is 22.46, so a
   correct sampler stays below 30 with overwhelming probability while a
   deliberately biased one lands far above. *)
let chi_square ~bound ~samples draw =
  let buckets = Array.make bound 0 in
  for _ = 1 to samples do
    let v = draw () in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int samples /. float_of_int bound in
  Array.fold_left
    (fun acc count ->
      let d = float_of_int count -. expected in
      acc +. (d *. d /. expected))
    0. buckets

let test_rng_int_chi_square () =
  let rng = Rng.create 2024 in
  let chi2 = chi_square ~bound:7 ~samples:70_000 (fun () -> Rng.int rng 7) in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f below 30 (df=6, p=0.999 at 22.46)" chi2)
    true (chi2 < 30.)

let test_rng_int_chi_square_pow2 () =
  (* The masked power-of-two shortcut must be just as uniform. *)
  let rng = Rng.create 77 in
  let chi2 = chi_square ~bound:8 ~samples:80_000 (fun () -> Rng.int rng 8) in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f below 32 (df=7, p=0.999 at 24.32)" chi2)
    true (chi2 < 32.)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

(* The stream, pinned value by value: seeds, bounds and the draw count of
   rejection sampling must not change, or every synthesized schedule
   would. [int] is pinned at a power of two (masking), small bounds and
   2^61 + 1, where about half the draws are rejected: its eight values
   take 17 draws, which the next [bits64] pins. *)
let test_rng_stream_pinned () =
  let draws k f = Array.to_list (Array.init k (fun _ -> f ())) in
  let bits seed = let r = Rng.create seed in draws 4 (fun () -> Rng.bits64 r) in
  Alcotest.(check (list int64)) "bits64, seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L ]
    (bits 0);
  Alcotest.(check (list int64)) "bits64, seed 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L ]
    (bits 42);
  Alcotest.(check (list int64)) "bits64, seed -7"
    [ 7790691224305936752L; 8829294814793142954L; -1715519743840680431L; 2940488688193949890L ]
    (bits (-7));
  let ints seed bound = let r = Rng.create seed in draws 8 (fun () -> Rng.int r bound) in
  Alcotest.(check (list int)) "int 16" [ 1; 7; 14; 11; 9; 0; 5; 5 ] (ints 1 16);
  Alcotest.(check (list int)) "int 1" [ 0; 0; 0; 0; 0; 0; 0; 0 ] (ints 1 1);
  Alcotest.(check (list int)) "int 3" [ 2; 0; 1; 0; 0; 2; 0; 0 ] (ints 2 3);
  Alcotest.(check (list int)) "int 1000" [ 53; 753; 921; 647; 366; 527; 72; 758 ] (ints 3 1000);
  let r = Rng.create 4 in
  Alcotest.(check (list int)) "int 2^61 + 1"
    [
      2012856130970813535; 1599671085479290337; 694912874033826821; 812539844136168482;
      797308424263930556; 1867264302655059497; 820546145524486993; 1989552162732218683;
    ]
    (draws 8 (fun () -> Rng.int r ((1 lsl 61) + 1)));
  Alcotest.(check int64) "17 draws for those 8" 3117327582923952356L (Rng.bits64 r);
  let floats seed bound = let r = Rng.create seed in draws 4 (fun () -> Rng.float r bound) in
  Alcotest.(check (list (float 0.))) "float 1"
    [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1; 0x1.c7061a43b90b2p-2 ]
    (floats 1 1.);
  Alcotest.(check (list (float 0.))) "float 10"
    [ 0x1.b4b64f7cdc18fp+2; 0x1.e071d9ec5337cp+2; 0x1.539cdb7a578bap+1; 0x1.f647e01879fb7p+2 ]
    (floats 9 10.);
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  Alcotest.(check (list int64)) "split child"
    [ -7926430521640997682L; 4919299050227587188L ]
    (draws 2 (fun () -> Rng.bits64 child));
  Alcotest.(check int64) "split parent" 4839782808629744545L (Rng.bits64 parent);
  let original = Rng.create 12 in
  ignore (Rng.bits64 original);
  let copy = Rng.copy original in
  List.iter
    (fun (what, r) ->
      Alcotest.(check int64) (what ^ " bits64") (-1116705624757328809L) (Rng.bits64 r);
      Alcotest.(check int) (what ^ " int") 8 (Rng.int r 10))
    [ ("copy", copy); ("original", original) ]

(* [Rng.int] is on the matcher's per-scan path: it must not allocate. *)
let test_rng_int_allocates_nothing () =
  let r = Rng.create 3 and acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    acc := !acc + Rng.int r (1 + (i land 1023)) + Rng.int r ((1 lsl 61) + 1)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10^5 calls of each bound" 0. words;
  Alcotest.(check bool) "the draws were used" true (!acc <> 0)

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    let v = Rng.pick rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty") (fun () ->
      ignore (Rng.pick rng []))

(* --- Pq ----------------------------------------------------------------- *)

module Pq = Tacos_util.Pq

let test_pq_equal_keys_pop_in_insertion_order () =
  (* Regression for the simulator's determinism contract: simultaneous
     events (common at fault timestamps) must pop in insertion order, and
     two identical fills must replay identically. *)
  let fill () =
    let q = Pq.create () in
    List.iter
      (fun (k, v) -> Pq.push q k v)
      [ (1., 10); (0., 20); (1., 11); (1., 12); (0., 21); (2., 30) ];
    let key = [| nan |] in
    let rec drain acc =
      if Pq.is_empty q then List.rev acc
      else
        let v = Pq.pop q key in
        drain ((key.(0), v) :: acc)
    in
    drain []
  in
  let expected = [ (0., 20); (0., 21); (1., 10); (1., 11); (1., 12); (2., 30) ] in
  Alcotest.(check (list (pair (float 0.) int))) "insertion order on ties"
    expected (fill ());
  Alcotest.(check bool) "two fills replay identically" true (fill () = fill ())

(* --- Ivec --------------------------------------------------------------- *)

let test_ivec_push_get () =
  let v = Ivec.create () in
  for i = 0 to 99 do
    Ivec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Ivec.length v);
  Alcotest.(check int) "get" 84 (Ivec.get v 42)

let test_ivec_swap_remove () =
  let v = Ivec.create () in
  List.iter (Ivec.push v) [ 10; 20; 30; 40 ];
  let moved = Ivec.swap_remove v 1 in
  Alcotest.(check int) "last moved in" 40 moved;
  Alcotest.(check int) "length" 3 (Ivec.length v);
  let moved = Ivec.swap_remove v 2 in
  Alcotest.(check int) "removing the tail moves nothing" (-1) moved

(* --- Stats -------------------------------------------------------------- *)

let test_stats_basics () =
  Alcotest.check feq "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.check feq "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.check feq "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.check feq "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  Alcotest.check feq "stddev" 0. (Stats.stddev [ 5.; 5.; 5. ])

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.check feq "median" 3. (Stats.percentile 50. xs);
  Alcotest.check feq "p0" 1. (Stats.percentile 0. xs);
  Alcotest.check feq "p100" 5. (Stats.percentile 100. xs);
  Alcotest.check feq "interpolated" 1.5 (Stats.percentile 12.5 xs)

let test_stats_linear_fit () =
  let a, b = Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  Alcotest.check feq "intercept" 1. a;
  Alcotest.check feq "slope" 2. b

let test_stats_loglog () =
  (* y = 3 x^2 exactly. *)
  let pts = List.map (fun x -> (x, 3. *. x *. x)) [ 1.; 2.; 4.; 8.; 16. ] in
  Alcotest.check (Alcotest.float 1e-6) "exponent 2" 2. (Stats.loglog_exponent pts)

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* --- Units and rendering ------------------------------------------------- *)

let test_units_formatting () =
  Alcotest.(check string) "GB" "1 GB" (Units.bytes_pp 1e9);
  Alcotest.(check string) "MB" "64 MB" (Units.bytes_pp 64e6);
  Alcotest.(check string) "us" "1.08 us" (Units.time_pp 1.08e-6);
  Alcotest.(check string) "bw" "50 GB/s" (Units.bandwidth_pp 50e9)

let test_units_gbps () =
  Alcotest.check feq "conversion" 25e9 (Units.gbps 25.)

let test_table_render () =
  let s =
    Table.render ~header:[ "topo"; "time" ]
      [ [ "Ring"; "1.00" ]; [ "Mesh"; "12.25" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "topo");
  (* Rows are padded to equal width. *)
  let lines = String.split_on_char '\n' s in
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_cells () =
  Alcotest.(check string) "percent" "90.84%" (Table.cell_percent 0.9084);
  Alcotest.(check string) "float" "2.5" (Table.cell_float ~decimals:1 2.52)

let test_heatmap_ramp () =
  Alcotest.(check char) "cold" ' ' (Heatmap.ramp_char 0.);
  Alcotest.(check char) "hot" '@' (Heatmap.ramp_char 1.);
  Alcotest.(check char) "clamped" '@' (Heatmap.ramp_char 2.)

let test_heatmap_render () =
  let m =
    [| [| None; Some 1. |]; [| Some 0.5; None |] |]
  in
  let s = Heatmap.render m in
  Alcotest.(check bool) "marks missing links" true (String.contains s '#');
  Alcotest.(check bool) "marks the maximum" true (String.contains s '@')

(* --- Json ---------------------------------------------------------------- *)

module Json = Tacos_util.Json

let test_json_scalars () =
  Alcotest.(check bool) "number" true (Json.parse "42.5" = Ok (Json.Number 42.5));
  Alcotest.(check bool) "negative" true (Json.parse "-3" = Ok (Json.Number (-3.)));
  Alcotest.(check bool) "string" true (Json.parse "\"hi\"" = Ok (Json.String "hi"));
  Alcotest.(check bool) "true" true (Json.parse "true" = Ok (Json.Bool true));
  Alcotest.(check bool) "null" true (Json.parse "null" = Ok Json.Null)

let test_json_structures () =
  match Json.parse {|{"a": [1, 2, {"b": "x"}], "c": false}|} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Option.bind (Json.member "a" doc) Json.to_list with
    | Some [ one; _; obj ] ->
      Alcotest.(check (option int)) "first element" (Some 1) (Json.to_int one);
      Alcotest.(check (option string)) "nested string" (Some "x")
        (Option.bind (Json.member "b" obj) Json.to_string)
    | _ -> Alcotest.fail "array shape");
    Alcotest.(check bool) "bool member" true (Json.member "c" doc = Some (Json.Bool false))

let test_json_escapes () =
  (match Json.parse {|"line\nbreak\t\"q\""|} with
  | Ok (Json.String s) -> Alcotest.(check string) "unescaped" "line\nbreak\t\"q\"" s
  | _ -> Alcotest.fail "escape parse");
  (* \u escapes decode to UTF-8; a surrogate pair is one code point. *)
  match Json.parse {|"caf\u00E9 \ud83d\ude00 \u0001"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "unicode" "caf\xc3\xa9 \xf0\x9f\x98\x80 \001" s
  | _ -> Alcotest.fail "unicode escape parse"

let test_json_rejects_garbage () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "1 2";
      "tru";
      {|"\u12G4"|};
      {|"\u12"|};
      {|"\ud800"|};
      {|"\ud800\u0041"|};
      {|"\udc00\ud800"|};
    ]

let test_json_empty_containers () =
  Alcotest.(check bool) "empty object" true (Json.parse "{}" = Ok (Json.Object []));
  Alcotest.(check bool) "empty array" true (Json.parse "[ ]" = Ok (Json.Array []))

let test_json_encode_roundtrip () =
  let doc =
    Json.Object
      [
        ("name", Json.String "mesh:3x3");
        ("escaped", Json.String "a\"b\\c\nd\te");
        ("control", Json.String "\001");
        ("unit separator", Json.String "a\031b");
        ("count", Json.Number 42.);
        ("ratio", Json.Number 0.125);
        ("neg", Json.Number (-3.));
        ("flag", Json.Bool true);
        ("none", Json.Null);
        ("rows", Json.Array [ Json.Number 1.; Json.Object []; Json.Array [] ]);
      ]
  in
  match Json.parse (Json.encode doc) with
  | Ok parsed -> Alcotest.(check bool) "parse (encode v) = v" true (parsed = doc)
  | Error e -> Alcotest.failf "encode produced unparseable JSON: %s" e

let test_json_encode_integral () =
  (* Integral floats must not pick up a spurious fraction or exponent. *)
  Alcotest.(check string) "integral" "144" (Json.encode (Json.Number 144.));
  Alcotest.(check string) "zero" "0" (Json.encode (Json.Number 0.));
  (* Negative zero keeps its sign, and every integral number below 1e15
     prints in full, as [%.0f] spells it. *)
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (Json.encode (Json.Number f)))
    [
      (-0., "-0");
      (-1., "-1");
      (0x1p49, "562949953421312");
      (-0x1p49, "-562949953421312");
      (999999999999999., "999999999999999");
      (-999999999999999., "-999999999999999");
    ]

(* An integral number below 1e15 prints as [%.0f] spells it, on random
   integral floats of every magnitude. *)
let prop_json_encode_integral =
  QCheck.Test.make ~name:"encode integral like %.0f" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         let* digits = int_bound 15 in
         let* u = float_range (-1.) 1. in
         let f = Float.trunc (u *. (10. ** float_of_int digits)) in
         return (if Float.abs f < 1e15 then f else 0.)))
    (fun f -> String.equal (Json.encode (Json.Number f)) (Printf.sprintf "%.0f" f))

(* The encoder before numbers were memoized, kept as the oracle: every
   string escaped byte by byte, every number formatted where it stands. *)
module Oracle = struct
  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_number buf f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf
        (if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f))
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

  let rec add_value buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Number f -> add_number buf f
    | Json.String s -> add_escaped buf s
    | Json.Array elems ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_value buf v)
        elems;
      Buffer.add_char buf ']'
    | Json.Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_escaped buf k;
          Buffer.add_string buf ": ";
          add_value buf v)
        fields;
      Buffer.add_char buf '}'

  let encode v =
    let buf = Buffer.create 256 in
    add_value buf v;
    Buffer.contents buf
end

(* Numbers at the edges of each spelling: zero of both signs, the largest
   integral numbers written digit by digit and the smallest past them,
   2^53, subnormals. *)
let edge_floats =
  [|
    0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 0x1p53; 5e-324; -5e-324;
    0x0.fffffffffffffp-1022;
  |]

(* Bytes of every value, weighted toward the ones that must be escaped. *)
let json_string_gen =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char_range '\000' '\031');
             (2, oneofl [ '"'; '\\' ]);
             (5, map Char.chr (int_bound 255));
           ])
      (int_bound 12))

(* Trees up to depth 4 whose numbers come from a small pool, so that one
   document repeats them, with 0. and -0. always in it. *)
let json_tree_gen =
  QCheck.Gen.(
    let number = oneof [ map Int64.float_of_bits ui64; oneofa edge_floats ] in
    let* pool = list_size (int_range 1 6) number in
    let pool = Array.of_list (0. :: -0. :: pool) in
    let leaf =
      frequency
        [
          (1, return Json.Null);
          (1, map (fun b -> Json.Bool b) bool);
          (4, map (fun x -> Json.Number x) (oneofa pool));
          (2, map (fun s -> Json.String s) json_string_gen);
        ]
    in
    let rec tree depth =
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> Json.Array l) (list_size (int_bound 4) (tree (depth - 1))));
            ( 1,
              map
                (fun l -> Json.Object l)
                (list_size (int_bound 4) (pair json_string_gen (tree (depth - 1)))) );
          ]
    in
    let* doc = tree 4 in
    let* neg_first = bool in
    let zeros = if neg_first then [ -0.; 0. ] else [ 0.; -0. ] in
    return (Json.Array (doc :: List.map (fun z -> Json.Number z) zeros)))

let prop_json_encode_matches_oracle =
  QCheck.Test.make ~name:"encode matches the unmemoized encoder" ~count:1000
    (QCheck.make ~print:(fun v -> Printf.sprintf "%S" (Oracle.encode v)) json_tree_gen)
    (fun v -> String.equal (Json.encode v) (Oracle.encode v))

(* --- Clock ---------------------------------------------------------------- *)

module Clock = Tacos_util.Clock

let test_clock_monotone_span () =
  let s = Clock.start () in
  let busy = ref 0 in
  for i = 1 to 10_000 do
    busy := !busy + i
  done;
  let e = Clock.elapsed s in
  Alcotest.(check bool) "non-negative" true (e >= 0.);
  Alcotest.(check bool) "later spans grow" true (Clock.elapsed s >= e)

let test_clock_time () =
  let v, dt = Clock.time (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "duration non-negative" true (dt >= 0.)

(* --- Timeline ------------------------------------------------------------- *)

module Timeline = Tacos_util.Timeline

let iter_intervals intervals f = List.iter (fun (s, e) -> f s e) intervals

let test_timeline_binned_busy () =
  let busy =
    Timeline.binned_busy ~bins:4 ~span:4. (iter_intervals [ (0., 2.) ])
  in
  Alcotest.(check (array (float 1e-9))) "first half busy" [| 1.; 1.; 0.; 0. |] busy

let test_timeline_utilization () =
  let tl =
    Timeline.utilization ~bins:4 ~span:4. ~capacity:2.
      (iter_intervals [ (0., 2.); (1., 3.) ])
  in
  let expect = [ (1., 0.5); (2., 1.0); (3., 0.5); (4., 0.) ] in
  List.iter2
    (fun (t, u) (t', u') ->
      Alcotest.check feq "bin end" t' t;
      Alcotest.check feq "utilization" u' u)
    tl expect

let test_timeline_clamps_out_of_span () =
  (* Intervals sticking out past the span must clamp, not wrap or crash. *)
  let busy =
    Timeline.binned_busy ~bins:2 ~span:2. (iter_intervals [ (-1., 0.5); (1.5, 9.) ])
  in
  Alcotest.(check (array (float 1e-9))) "clamped" [| 0.5; 0.5 |] busy

let test_timeline_empty_span () =
  Alcotest.(check bool) "degenerate span" true
    (Timeline.utilization ~bins:8 ~span:0. ~capacity:1. (iter_intervals []) = [])

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects nonpositive" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int roughly uniform" `Quick test_rng_int_roughly_uniform;
          Alcotest.test_case "int chi-square (modulo-bias regression)" `Quick
            test_rng_int_chi_square;
          Alcotest.test_case "int chi-square power-of-two" `Quick
            test_rng_int_chi_square_pow2;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick test_rng_int_allocates_nothing;
          Alcotest.test_case "shuffle is permutation" `Quick
            test_rng_shuffle_is_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "pq",
        [
          Alcotest.test_case "equal keys pop in insertion order" `Quick
            test_pq_equal_keys_pop_in_insertion_order;
        ] );
      ( "ivec",
        [
          Alcotest.test_case "push/get" `Quick test_ivec_push_get;
          Alcotest.test_case "swap_remove" `Quick test_ivec_swap_remove;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "loglog exponent" `Quick test_stats_loglog;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "empty containers" `Quick test_json_empty_containers;
          Alcotest.test_case "encode round-trip" `Quick test_json_encode_roundtrip;
          Alcotest.test_case "encode integral" `Quick test_json_encode_integral;
          QCheck_alcotest.to_alcotest prop_json_encode_integral;
          QCheck_alcotest.to_alcotest prop_json_encode_matches_oracle;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone span" `Quick test_clock_monotone_span;
          Alcotest.test_case "time wrapper" `Quick test_clock_time;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "binned busy" `Quick test_timeline_binned_busy;
          Alcotest.test_case "utilization" `Quick test_timeline_utilization;
          Alcotest.test_case "clamps out of span" `Quick test_timeline_clamps_out_of_span;
          Alcotest.test_case "empty span" `Quick test_timeline_empty_span;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "units" `Quick test_units_formatting;
          Alcotest.test_case "gbps" `Quick test_units_gbps;
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "table cells" `Quick test_table_cells;
          Alcotest.test_case "heatmap ramp" `Quick test_heatmap_ramp;
          Alcotest.test_case "heatmap render" `Quick test_heatmap_render;
        ] );
    ]
