(* Tests for the observability substrate: off-by-default recording, the
   metric kinds, snapshot shape and reset semantics. *)

module Obs = Tacos_obs.Obs
module Json = Tacos_util.Json

(* The registry is global; every test starts from a clean, enabled slate
   and leaves the registry disabled so the other suites stay unaffected. *)
let with_fresh_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.counter "t.noop_counter" in
  let g = Obs.gauge "t.noop_gauge" in
  let h = Obs.histogram "t.noop_hist" in
  Obs.incr c;
  Obs.add c 100;
  Obs.observe_max g 5.;
  Obs.observe h 1.5;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Obs.gauge_value g)

let test_counter_and_gauge () =
  with_fresh_obs (fun () ->
      let c = Obs.counter "t.counter" in
      Obs.incr c;
      Obs.add c 41;
      Alcotest.(check int) "counter accumulates" 42 (Obs.value c);
      let g = Obs.gauge "t.gauge" in
      Obs.observe_max g 3.;
      Obs.observe_max g 1.;
      Obs.observe_max g 7.;
      Alcotest.(check (float 0.)) "gauge keeps the max" 7. (Obs.gauge_value g))

let test_interning_returns_same_metric () =
  with_fresh_obs (fun () ->
      let a = Obs.counter "t.same" in
      let b = Obs.counter "t.same" in
      Obs.incr a;
      Obs.incr b;
      Alcotest.(check int) "one underlying counter" 2 (Obs.value a))

let test_kind_collision_raises () =
  with_fresh_obs (fun () ->
      ignore (Obs.counter "t.kinded");
      Alcotest.(check bool) "histogram over counter name raises" true
        (match Obs.histogram "t.kinded" with
        | _ -> false
        | exception Invalid_argument _ -> true))

let member name = function
  | Json.Object fields -> List.assoc_opt name fields
  | _ -> None

let test_histogram_snapshot () =
  with_fresh_obs (fun () ->
      let h = Obs.histogram "t.hist" in
      List.iter (Obs.observe h) [ 1.; 2.; 4.; 0.; -3. ];
      let snap = Obs.snapshot () in
      let hist =
        Option.bind (member "histograms" snap) (member "t.hist")
        |> Option.get
      in
      Alcotest.(check bool) "count" true (member "count" hist = Some (Json.Number 5.));
      Alcotest.(check bool) "sum" true (member "sum" hist = Some (Json.Number 4.));
      Alcotest.(check bool) "min" true (member "min" hist = Some (Json.Number (-3.)));
      Alcotest.(check bool) "max" true (member "max" hist = Some (Json.Number 4.));
      match member "buckets" hist with
      | Some (Json.Array buckets) ->
        (* -3 and 0 share the non-positive bucket; 1, 2, 4 land in three
           distinct power-of-two buckets. *)
        Alcotest.(check int) "distinct buckets" 4 (List.length buckets)
      | _ -> Alcotest.fail "buckets shape")

let test_timer_records () =
  with_fresh_obs (fun () ->
      let tm = Obs.timer "t.timer" in
      let v = Obs.time tm (fun () -> 7) in
      Alcotest.(check int) "value passes through" 7 v;
      let timers = Option.get (member "timers" (Obs.snapshot ())) in
      match Option.bind (member "t.timer" timers) (member "count") with
      | Some (Json.Number 1.) -> ()
      | _ -> Alcotest.fail "timer did not record one span")

let test_timer_records_on_raise () =
  with_fresh_obs (fun () ->
      let tm = Obs.timer "t.timer_raise" in
      (try Obs.time tm (fun () -> failwith "boom") with Failure _ -> ());
      let timers = Option.get (member "timers" (Obs.snapshot ())) in
      match Option.bind (member "t.timer_raise" timers) (member "count") with
      | Some (Json.Number 1.) -> ()
      | _ -> Alcotest.fail "raising span not recorded")

let test_reset_zeroes () =
  with_fresh_obs (fun () ->
      let c = Obs.counter "t.reset_counter" in
      let h = Obs.histogram "t.reset_hist" in
      Obs.add c 5;
      Obs.observe h 2.;
      Obs.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
      let hist =
        Option.bind (member "histograms" (Obs.snapshot ())) (member "t.reset_hist")
        |> Option.get
      in
      Alcotest.(check bool) "histogram zeroed" true
        (member "count" hist = Some (Json.Number 0.)))

let test_snapshot_is_valid_json () =
  with_fresh_obs (fun () ->
      Obs.incr (Obs.counter "t.roundtrip");
      Obs.observe (Obs.histogram "t.roundtrip_hist") 0.25;
      match Json.parse (Json.encode (Obs.snapshot ())) with
      | Ok (Json.Object sections) ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (s ^ " section present") true
              (List.mem_assoc s sections))
          [ "counters"; "gauges"; "histograms"; "timers" ]
      | Ok _ -> Alcotest.fail "snapshot is not an object"
      | Error e -> Alcotest.failf "snapshot does not parse: %s" e)

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "interning" `Quick test_interning_returns_same_metric;
          Alcotest.test_case "kind collision raises" `Quick test_kind_collision_raises;
          Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
          Alcotest.test_case "timer records" `Quick test_timer_records;
          Alcotest.test_case "timer records on raise" `Quick test_timer_records_on_raise;
          Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
          Alcotest.test_case "snapshot is valid json" `Quick test_snapshot_is_valid_json;
        ] );
    ]
