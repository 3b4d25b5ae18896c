(* Equivalence of [Schedule] with a reference implementation over send
   lists. [Oracle] below is that reference: [make], [shift], [reverse],
   [concat], [union], lift-and-assemble composition and the four validators,
   written over a sorted [send list]. The tests compare the library with it
   exactly, on random inputs:

   - the full ordered send sequence and makespan, floats compared bit for
     bit, on inputs with many exact (start, finish) ties and with offsets
     whose rounding creates new ties;
   - every validator's result, error text included, on random valid
     schedules and on single mutations of them.

   Golden digests pin the schedules the group planner composes for the
   seven hier-scale configurations at seed 1, at one and at two domains,
   and golden MD5s pin the bytes [Schedule.to_json] writes. *)

open Tacos_topology
open Tacos_collective
module Synth = Tacos.Synthesizer
module Group = Tacos_groups.Group
module Compose = Tacos_groups.Compose
module Plan = Tacos_groups.Plan

let sends_of (t : Schedule.t) = Schedule.sends t

module Oracle = struct
  type send = Schedule.send = {
    chunk : int;
    edge : int;
    src : int;
    dst : int;
    start : float;
    finish : float;
  }

  type t = { sends : send list; makespan : float }

  let eps_for makespan = 1e-9 +. (1e-9 *. Float.abs makespan)

  let make sends =
    List.iter
      (fun s ->
        if s.start < 0. || s.finish < s.start then
          invalid_arg "Schedule.make: bad send interval")
      sends;
    let sends =
      List.stable_sort
        (fun a b ->
          let c = Float.compare a.start b.start in
          if c <> 0 then c else Float.compare a.finish b.finish)
        sends
    in
    let makespan = List.fold_left (fun acc s -> Float.max acc s.finish) 0. sends in
    { sends; makespan }

  let shift t dt =
    make
      (List.map (fun s -> { s with start = s.start +. dt; finish = s.finish +. dt }) t.sends)

  let reverse t =
    let m = t.makespan in
    make
      (List.map
         (fun s ->
           { s with src = s.dst; dst = s.src; start = m -. s.finish; finish = m -. s.start })
         t.sends)

  let concat a b =
    let b = shift b a.makespan in
    make (a.sends @ b.sends)

  let union a b =
    let cmp x y =
      let c = Float.compare x.start y.start in
      if c <> 0 then c else Float.compare x.finish y.finish
    in
    { sends = List.merge cmp a.sends b.sends; makespan = Float.max a.makespan b.makespan }

  let lift (group : Group.t) ~chunk_map ~offset (schedule : t) =
    List.map
      (fun s ->
        {
          chunk = chunk_map s.chunk;
          edge = group.link_map.(s.edge);
          src = group.members.(s.src);
          dst = group.members.(s.dst);
          start = s.start +. offset;
          finish = s.finish +. offset;
        })
      schedule.sends

  let assemble phases = make (List.concat phases)

  let check_forbidden ~eps forbidden s =
    List.find_map
      (fun (link, from) ->
        if s.edge = link && s.finish > from +. eps then
          Some
            (Printf.sprintf "send of chunk %d rides link %d after it died at %g" s.chunk
               link from)
        else None)
      forbidden

  let validate_positioned topo ?(forbidden = []) ~precondition ~postcondition
      ~num_chunks ~chunk_size t =
    let eps = eps_for t.makespan in
    let npus = Topology.num_npus topo in
    let chunks = num_chunks in
    let exception Bad of string in
    try
      let arrival = Array.make_matrix npus chunks infinity in
      List.iter (fun (d, c) -> arrival.(d).(c) <- 0.) precondition;
      let last_free = Hashtbl.create 64 in
      List.iter
        (fun s ->
          if s.chunk < 0 || s.chunk >= chunks then
            raise (Bad (Printf.sprintf "send of unknown chunk %d" s.chunk));
          let e =
            try Topology.edge topo s.edge
            with Invalid_argument _ ->
              raise (Bad (Printf.sprintf "send over unknown link %d" s.edge))
          in
          if e.Topology.src <> s.src || e.Topology.dst <> s.dst then
            raise
              (Bad
                 (Printf.sprintf "send %d->%d does not match link %d (%d->%d)" s.src
                    s.dst s.edge e.Topology.src e.Topology.dst));
          (match check_forbidden ~eps forbidden s with
          | Some msg -> raise (Bad msg)
          | None -> ());
          let cost = Link.cost e.Topology.link chunk_size in
          if s.finish -. s.start < cost -. eps then
            raise
              (Bad
                 (Printf.sprintf "send of chunk %d on link %d shorter than its α-β cost"
                    s.chunk s.edge));
          (match Hashtbl.find_opt last_free s.edge with
          | Some free when s.start < free -. eps ->
            raise (Bad (Printf.sprintf "link %d carries two chunks at once" s.edge))
          | _ -> ());
          Hashtbl.replace last_free s.edge s.finish;
          if arrival.(s.src).(s.chunk) > s.start +. eps then
            raise
              (Bad
                 (Printf.sprintf "NPU %d sends chunk %d at %g before holding it" s.src
                    s.chunk s.start));
          arrival.(s.dst).(s.chunk) <- Float.min arrival.(s.dst).(s.chunk) s.finish)
        t.sends;
      List.iter
        (fun (d, c) ->
          if arrival.(d).(c) = infinity then
            raise
              (Bad (Printf.sprintf "postcondition unmet: NPU %d never gets chunk %d" d c)))
        postcondition;
      Ok ()
    with Bad msg -> Error msg

  let validate_noncombining topo spec t =
    validate_positioned topo ~precondition:(Spec.precondition spec)
      ~postcondition:(Spec.postcondition spec) ~num_chunks:(Spec.num_chunks spec)
      ~chunk_size:(Spec.chunk_size spec) t

  let validate topo spec t =
    if Pattern.is_combining spec.Spec.pattern then
      validate_noncombining (Topology.reverse topo) (Spec.reverse spec) (reverse t)
    else
      match spec.Spec.pattern with
      | Pattern.All_reduce -> Error "Schedule.validate: use validate_all_reduce for All-Reduce"
      | _ -> validate_noncombining topo spec t

  let validate_all_reduce topo spec ~reduce_scatter ~all_gather =
    match spec.Spec.pattern with
    | Pattern.All_reduce -> (
      let phase pattern = Spec.with_pattern spec pattern in
      match validate topo (phase Pattern.Reduce_scatter) reduce_scatter with
      | Error e -> Error ("reduce-scatter phase: " ^ e)
      | Ok () -> (
        let eps = eps_for reduce_scatter.makespan in
        let ag_start =
          List.fold_left (fun acc s -> Float.min acc s.start) infinity all_gather.sends
        in
        if all_gather.sends <> [] && ag_start < reduce_scatter.makespan -. eps then
          Error "all-gather phase starts before reduce-scatter completes"
        else
          match
            validate topo (phase Pattern.All_gather)
              (shift all_gather (-.reduce_scatter.makespan))
          with
          | Error e -> Error ("all-gather phase: " ^ e)
          | Ok () -> Ok ()))
    | _ -> Error "Schedule.validate_all_reduce: spec is not All-Reduce"

  let validate_reduction topo ?(forbidden = []) ~contributions ~postcondition
      ~num_chunks ~chunk_size ~combining ~pull () =
    let module Iset = Set.Make (Int) in
    let eps = eps_for (Float.max combining.makespan pull.makespan) in
    let npus = Topology.num_npus topo in
    let exception Bad of string in
    try
      if num_chunks <= 0 then raise (Bad "num_chunks must be positive");
      let contributors = Array.make num_chunks Iset.empty in
      let absorbed = Array.make_matrix npus num_chunks Iset.empty in
      List.iter
        (fun (v, c) ->
          if v < 0 || v >= npus || c < 0 || c >= num_chunks then
            raise (Bad (Printf.sprintf "contribution (%d, %d) out of range" v c));
          contributors.(c) <- Iset.add v contributors.(c);
          absorbed.(v).(c) <- Iset.add v absorbed.(v).(c))
        contributions;
      let all_sends =
        List.merge (fun a b -> Float.compare a.start b.start) combining.sends pull.sends
      in
      let last_free = Hashtbl.create 64 in
      List.iter
        (fun s ->
          if s.chunk < 0 || s.chunk >= num_chunks then
            raise (Bad (Printf.sprintf "send of unknown chunk %d" s.chunk));
          let e =
            try Topology.edge topo s.edge
            with Invalid_argument _ ->
              raise (Bad (Printf.sprintf "send over unknown link %d" s.edge))
          in
          if e.Topology.src <> s.src || e.Topology.dst <> s.dst then
            raise
              (Bad
                 (Printf.sprintf "send %d->%d does not match link %d (%d->%d)" s.src
                    s.dst s.edge e.Topology.src e.Topology.dst));
          (match check_forbidden ~eps forbidden s with
          | Some msg -> raise (Bad msg)
          | None -> ());
          if s.finish -. s.start < Link.cost e.Topology.link chunk_size -. eps then
            raise
              (Bad
                 (Printf.sprintf "send of chunk %d on link %d shorter than its α-β cost"
                    s.chunk s.edge));
          (match Hashtbl.find_opt last_free s.edge with
          | Some free when s.start < free -. eps ->
            raise (Bad (Printf.sprintf "link %d carries two chunks at once" s.edge))
          | _ -> ());
          Hashtbl.replace last_free s.edge s.finish)
        all_sends;
      let events =
        List.concat_map
          (fun s -> [ (s.start, 1, `Combine_start, s); (s.finish, 0, `Combine_finish, s) ])
          combining.sends
        @ List.concat_map
            (fun s -> [ (s.start, 1, `Pull_start, s); (s.finish, 0, `Pull_finish, s) ])
            pull.sends
      in
      let events =
        List.sort
          (fun (ta, pa, _, _) (tb, pb, _, _) ->
            let c = Float.compare ta tb in
            if c <> 0 then c else compare pa pb)
          events
      in
      let in_flight : (int * float, Iset.t) Hashtbl.t = Hashtbl.create 64 in
      let key s = (s.edge, s.start) in
      List.iter
        (fun (_, _, kind, s) ->
          let c = s.chunk in
          match kind with
          | `Combine_start ->
            Hashtbl.replace in_flight (key s) absorbed.(s.src).(c);
            absorbed.(s.src).(c) <- Iset.empty
          | `Combine_finish ->
            let carried =
              match Hashtbl.find_opt in_flight (key s) with
              | Some set ->
                Hashtbl.remove in_flight (key s);
                set
              | None -> Iset.empty
            in
            let clash = Iset.inter carried absorbed.(s.dst).(c) in
            if not (Iset.is_empty clash) then
              raise
                (Bad
                   (Printf.sprintf
                      "NPU %d absorbs the contribution of rank %d to chunk %d twice"
                      s.dst (Iset.min_elt clash) c));
            absorbed.(s.dst).(c) <- Iset.union carried absorbed.(s.dst).(c)
          | `Pull_start ->
            if not (Iset.equal absorbed.(s.src).(c) contributors.(c)) then
              raise
                (Bad
                   (Printf.sprintf
                      "NPU %d forwards chunk %d at %g holding a partial copy (%d of %d \
                       contributions)"
                      s.src c s.start
                      (Iset.cardinal absorbed.(s.src).(c))
                      (Iset.cardinal contributors.(c))))
          | `Pull_finish -> absorbed.(s.dst).(c) <- contributors.(c))
        events;
      List.iter
        (fun (d, c) ->
          if d < 0 || d >= npus || c < 0 || c >= num_chunks then
            raise (Bad (Printf.sprintf "postcondition (%d, %d) out of range" d c));
          if not (Iset.equal absorbed.(d).(c) contributors.(c)) then
            raise
              (Bad
                 (Printf.sprintf
                    "postcondition unmet: NPU %d holds %d of %d contributions to chunk %d"
                    d
                    (Iset.cardinal absorbed.(d).(c))
                    (Iset.cardinal contributors.(c))
                    c)))
        postcondition;
      Ok ()
    with Bad msg -> Error msg
end

(* --- exact comparison ------------------------------------------------------ *)

let bits = Int64.bits_of_float

let send_repr (s : Schedule.send) =
  (s.Schedule.chunk, s.Schedule.edge, s.Schedule.src, s.Schedule.dst, bits s.Schedule.start,
   bits s.Schedule.finish)

let repr (t : Schedule.t) = (List.map send_repr (sends_of t), bits t.Schedule.makespan)
let oracle_repr (t : Oracle.t) = (List.map send_repr t.Oracle.sends, bits t.Oracle.makespan)

(* Run both sides; an [Invalid_argument] counts as an outcome to compare. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same lib oracle =
  match (outcome lib, outcome oracle) with
  | Ok a, Ok b -> repr a = oracle_repr b
  | Error a, Error b -> String.equal a b
  | _ -> false

(* --- tie-heavy send lists ---------------------------------------------------- *)

(* Few distinct times, with neighbours one ulp apart, so exact (start,
   finish) ties are common, and offsets whose rounding merges distinct
   times (1e16 absorbs every fraction below 1). *)
let times = [| 0.; 0.1; 0.2; 0.3; 0.30000000000000004; 1. /. 3.; 1e-9; 2.5; 7.; 1e15 |]
let durations = [| 0.; 1e-9; 0.1; 0.2; 1.; 0.30000000000000004 |]
let offsets = [| 0.; 1.; 3.7; 0.1; 1e-3; 1e16; 0.7 |]

let send_gen ~nodes ~links ~chunks =
  QCheck.Gen.(
    let* chunk = int_bound (chunks - 1) in
    let* edge = int_bound (links - 1) in
    let* src = int_bound (nodes - 1) in
    let* dst = int_bound (nodes - 1) in
    let* t = oneofa times in
    let* d = oneofa durations in
    return { Schedule.chunk; edge; src; dst; start = t; finish = t +. d })

let sends_gen = QCheck.Gen.(list_size (int_bound 40) (send_gen ~nodes:6 ~links:8 ~chunks:5))

let print_sends l =
  String.concat "; "
    (List.map
       (fun (s : Schedule.send) ->
         Printf.sprintf "%d:%d %d->%d [%h, %h]" s.Schedule.chunk s.Schedule.edge
           s.Schedule.src s.Schedule.dst s.Schedule.start s.Schedule.finish)
       l)

let arb_sends = QCheck.make ~print:print_sends sends_gen

let prop_make =
  QCheck.Test.make ~name:"make orders like the stable list sort" ~count:500 arb_sends
    (fun l -> same (fun () -> Schedule.make l) (fun () -> Oracle.make l))

let arb_sends_offset =
  QCheck.make
    ~print:(fun (l, o, neg) -> Printf.sprintf "%s  offset %h%s" (print_sends l) o (if neg then " (negated)" else ""))
    QCheck.Gen.(triple sends_gen (oneofa offsets) bool)

let prop_shift =
  QCheck.Test.make ~name:"shift matches, rounding ties included" ~count:500 arb_sends_offset
    (fun (l, o, neg) ->
      let o = if neg then -.o else o in
      same
        (fun () -> Schedule.shift (Schedule.make l) o)
        (fun () -> Oracle.shift (Oracle.make l) o))

let prop_reverse =
  QCheck.Test.make ~name:"reverse matches" ~count:500 arb_sends (fun l ->
      same
        (fun () -> Schedule.reverse (Schedule.make l))
        (fun () -> Oracle.reverse (Oracle.make l)))

let arb_two = QCheck.make QCheck.Gen.(pair sends_gen sends_gen)

let prop_concat =
  QCheck.Test.make ~name:"concat matches" ~count:500 arb_two (fun (a, b) ->
      same
        (fun () -> Schedule.concat (Schedule.make a) (Schedule.make b))
        (fun () -> Oracle.concat (Oracle.make a) (Oracle.make b)))

let prop_union =
  QCheck.Test.make ~name:"union matches" ~count:500 arb_two (fun (a, b) ->
      same
        (fun () -> Schedule.union (Schedule.make a) (Schedule.make b))
        (fun () -> Oracle.union (Oracle.make a) (Oracle.make b)))

(* A run for composition: a local schedule, a group that maps its 6 local
   ranks and 8 local links injectively onto a 12-NPU, 20-link fabric, the
   phase offset it is composed at, and the stride of its chunk table. *)
let dummy_topo = Builders.ring 2

let group_gen =
  QCheck.Gen.(
    let* members = map Array.of_list (shuffle_l (List.init 12 Fun.id)) in
    let* links = map Array.of_list (shuffle_l (List.init 20 Fun.id)) in
    return
      { Group.gid = 0; members = Array.sub members 0 6; topo = dummy_topo;
        link_map = Array.sub links 0 8 })

let run_gen =
  QCheck.Gen.(
    let* l = sends_gen in
    let* group = group_gen in
    let* offset = oneofa offsets in
    let* stride = int_range 1 3 in
    return (l, group, offset, stride))

(* The dedup shape: several groups that share one local schedule (one
   physical list, so one [Schedule.t] on the library side) at one offset. *)
let dedup_gen =
  QCheck.Gen.(
    let* l = sends_gen in
    let* offset = oneofa offsets in
    let* stride = int_range 1 3 in
    let* groups = list_size (int_range 2 5) group_gen in
    return (List.map (fun g -> (l, g, offset, stride)) groups))

let phase_gen =
  QCheck.Gen.(
    oneof
      [
        list_size (int_range 1 6) run_gen;
        dedup_gen;
        map2 ( @ ) dedup_gen (list_size (int_range 1 3) run_gen);
      ])

(* When the runs of [phase] have all finished on the composed clock. *)
let phase_finish phase =
  List.fold_left
    (fun acc (l, _, offset, _) ->
      List.fold_left (fun acc (s : Schedule.send) -> Float.max acc (offset +. s.finish)) acc l)
    0. phase

(* [later] moved to start when [phase] finishes: phases wholly ordered in
   time, as a two-phase plan and an All-Reduce's RS|AG union compose them. *)
let after phase later =
  let t = phase_finish phase in
  List.map (fun (l, g, _, stride) -> (l, g, t, stride)) later

let runs_gen =
  QCheck.Gen.(
    let* first = phase_gen in
    let* second = phase_gen in
    let* ordered = bool in
    if ordered then return (first @ after first second) else return first)

let parts_lib runs =
  let made = ref [] in
  let schedule l =
    match List.assq_opt l !made with
    | Some s -> s
    | None ->
      let s = Schedule.make l in
      made := (l, s) :: !made;
      s
  in
  List.map
    (fun (l, group, offset, stride) ->
      { Compose.group; chunks = Array.init 5 (fun c -> c * stride); schedule = schedule l;
        offset })
    runs

let lift_oracle runs =
  List.map
    (fun (l, g, offset, stride) ->
      Oracle.lift g ~chunk_map:(fun c -> c * stride) ~offset (Oracle.make l))
    runs

let arb_runs =
  QCheck.make
    ~print:(fun (a, b) ->
      let one = List.map (fun (l, _, o, _) -> Printf.sprintf "run @%h: %s" o (print_sends l)) in
      String.concat "\n" (one a @ ("--" :: one b)))
    QCheck.Gen.(
      let* a = runs_gen in
      let* b = runs_gen in
      let* ordered = bool in
      return (a, if ordered then after a b else b))

let prop_compose =
  QCheck.Test.make ~name:"lift and assemble merge like the sort" ~count:300 arb_runs
    (fun (a, _) ->
      same
        (fun () -> Compose.assemble (parts_lib a))
        (fun () -> Oracle.assemble (lift_oracle a)))

let prop_compose_union =
  QCheck.Test.make ~name:"union of assembled phases matches" ~count:300 arb_runs
    (fun (a, b) ->
      same
        (fun () ->
          Schedule.union (Compose.assemble (parts_lib a)) (Compose.assemble (parts_lib b)))
        (fun () ->
          Oracle.union (Oracle.assemble (lift_oracle a)) (Oracle.assemble (lift_oracle b))))

(* --- validator differential --------------------------------------------------- *)

let fabric = function
  | 0 -> Builders.ring ~link:(Link.make ~alpha:1. ~beta:0.) 4
  | 1 -> Builders.mesh [| 2; 3 |]
  | 2 -> Builders.rfs3d ~bw:(200e9, 100e9, 50e9) (2, 2, 2)
  | _ -> Builders.torus ~link:(Link.make ~alpha:0.5e-6 ~beta:1e-11) [| 3; 2 |]

let pattern_of i npus =
  match i with
  | 0 -> Pattern.All_gather
  | 1 -> Pattern.Reduce_scatter
  | 2 -> Pattern.Broadcast (npus - 1)
  | 3 -> Pattern.Reduce 1
  | _ -> Pattern.All_reduce

(* One case: fabric, pattern, chunks per NPU, synthesis seed, mutation and
   the index of the send it hits. *)
let case_gen =
  QCheck.Gen.(
    let* f = int_bound 3 in
    let* p = int_bound 4 in
    let* k = int_range 1 2 in
    let* seed = int_bound 1000 in
    let* mutation = int_bound 11 in
    let* pick = int_bound 10_000 in
    return (f, p, k, seed, mutation, pick))

let arb_case =
  QCheck.make
    ~print:(fun (f, p, k, seed, m, pick) ->
      Printf.sprintf "fabric %d pattern %d k %d seed %d mutation %d pick %d" f p k seed m pick)
    case_gen

let synthesize (f, p, k, seed, _, _) =
  let topo = fabric f in
  let npus = Topology.num_npus topo in
  let spec =
    Spec.make ~chunks_per_npu:k ~buffer_size:1e6 ~pattern:(pattern_of p npus) ~npus ()
  in
  (topo, spec, Synth.synthesize ~seed topo spec)

(* Apply one mutation to a send list. Every mutation keeps start >= 0 and
   finish >= start, so [make] accepts the result on both sides. *)
let last_finish l = List.fold_left (fun acc (x : Schedule.send) -> Float.max acc x.finish) 0. l

let mutate ?after ~links ~mutation ~pick (l : Schedule.send list) =
  let a = Array.of_list l in
  let n = Array.length a in
  if n = 0 then l
  else begin
    let i = pick mod n in
    let s = a.(i) in
    let dur = s.finish -. s.start in
    let set s' = Array.to_list (Array.mapi (fun j x -> if j = i then s' else x) a) in
    match mutation with
    | 1 -> set { s with edge = (s.edge + 1) mod links } (* wrong link *)
    | 2 -> set { s with edge = links + 2 } (* unknown link *)
    | 3 ->
      (* overlap: a copy half a duration later on the same link *)
      l @ [ { s with start = s.start +. (0.5 *. dur); finish = s.finish +. (0.5 *. dur) } ]
    | 4 -> set { s with finish = s.start +. (0.5 *. dur) } (* too short *)
    | 5 -> set { s with start = 0.; finish = dur } (* sent before held *)
    | 6 -> List.filteri (fun j _ -> j <> i) l (* missing delivery *)
    | 7 -> set { s with chunk = 10_000 } (* unknown chunk *)
    | 8 -> set { s with src = s.dst; dst = s.src } (* endpoints swapped *)
    | 9 ->
      (* double absorb: the same send again after everything else *)
      let last = Option.value after ~default:(last_finish l) in
      l @ [ { s with start = last +. dur; finish = last +. (2. *. dur) } ]
    | _ -> l
  end

let forbidden_of ~mutation ~pick (l : Schedule.send list) =
  match (mutation, l) with
  | 10, _ :: _ ->
    let s = List.nth l (pick mod List.length l) in
    [ (s.Schedule.edge, s.Schedule.start) ]
  | 11, _ :: _ -> [ (0, 1e300); (1, 0.) ]
  | _ -> []

let prop_validate =
  QCheck.Test.make ~name:"validate and validate_all_reduce match" ~count:400 arb_case
    (fun ((_, _, _, _, mutation, pick) as case) ->
      let topo, spec, r = synthesize case in
      let links = Topology.num_links topo in
      match r.Synth.phases with
      | Some (rs, ag) ->
        let rs_l = sends_of rs and ag_l = sends_of ag in
        let rs_l, ag_l =
          if pick mod 2 = 0 then (mutate ~links ~mutation ~pick rs_l, ag_l)
          else (rs_l, mutate ~links ~mutation ~pick ag_l)
        in
        let ag_l =
          (* an All-Gather phase that starts too early *)
          if mutation = 11 then
            List.map
              (fun (s : Schedule.send) ->
                { s with start = 0.5 *. s.start; finish = (0.5 *. s.start) +. (s.finish -. s.start) })
              ag_l
          else ag_l
        in
        Schedule.validate_all_reduce topo spec ~reduce_scatter:(Schedule.make rs_l)
          ~all_gather:(Schedule.make ag_l)
        = Oracle.validate_all_reduce topo spec ~reduce_scatter:(Oracle.make rs_l)
            ~all_gather:(Oracle.make ag_l)
      | None ->
        let l = mutate ~links ~mutation ~pick (sends_of r.Synth.schedule) in
        Schedule.validate topo spec (Schedule.make l)
        = Oracle.validate topo spec (Oracle.make l))

let prop_validate_positioned =
  QCheck.Test.make ~name:"validate_positioned matches" ~count:400 arb_case
    (fun (f, p, k, seed, mutation, pick) ->
      (* non-combining patterns only: the positional form checks them as is *)
      let p = if p mod 2 = 0 then 0 else 2 in
      let topo, spec, r = synthesize (f, p, k, seed, mutation, pick) in
      let l = mutate ~links:(Topology.num_links topo) ~mutation ~pick (sends_of r.Synth.schedule) in
      let forbidden = forbidden_of ~mutation ~pick l in
      (* a postcondition that names a subset, in a scrambled order *)
      let post = Spec.postcondition spec in
      let post = if pick mod 3 = 0 then List.rev post else post in
      let run validate make =
        validate topo ~forbidden ~precondition:(Spec.precondition spec) ~postcondition:post
          ~num_chunks:(Spec.num_chunks spec) ~chunk_size:(Spec.chunk_size spec) (make l)
      in
      run (fun topo ~forbidden -> Schedule.validate_positioned topo ~forbidden) Schedule.make
      = run (fun topo ~forbidden -> Oracle.validate_positioned topo ~forbidden) Oracle.make)

let prop_validate_reduction =
  QCheck.Test.make ~name:"validate_reduction matches" ~count:400 arb_case
    (fun (f, p, k, seed, mutation, pick) ->
      (* Reduce-Scatter alone, or an All-Reduce split into its combining
         and pull halves *)
      let p = if p mod 2 = 0 then 1 else 4 in
      let topo, spec, r = synthesize (f, p, k, seed, mutation, pick) in
      let links = Topology.num_links topo in
      let combining, pull, postcondition =
        match r.Synth.phases with
        | Some (rs, ag) -> (sends_of rs, sends_of ag, Spec.postcondition spec)
        | None -> (sends_of r.Synth.schedule, [], Spec.postcondition spec)
      in
      let after = Float.max (last_finish combining) (last_finish pull) in
      let combining, pull =
        if pick mod 2 = 0 || pull = [] then (mutate ~after ~links ~mutation ~pick combining, pull)
        else (combining, mutate ~after ~links ~mutation ~pick pull)
      in
      let forbidden = forbidden_of ~mutation ~pick combining in
      let contributions =
        Spec.precondition (Spec.with_pattern spec Pattern.Reduce_scatter)
      in
      let num_chunks = Spec.num_chunks spec and chunk_size = Spec.chunk_size spec in
      Schedule.validate_reduction topo ~forbidden ~contributions ~postcondition ~num_chunks
        ~chunk_size ~combining:(Schedule.make combining) ~pull:(Schedule.make pull) ()
      = Oracle.validate_reduction topo ~forbidden ~contributions ~postcondition ~num_chunks
          ~chunk_size ~combining:(Oracle.make combining) ~pull:(Oracle.make pull) ())

(* --- golden digests ------------------------------------------------------------ *)

let digest (t : Schedule.t) =
  let b = Buffer.create (1 lsl 16) in
  Printf.bprintf b "%h\n" t.Schedule.makespan;
  List.iter
    (fun (s : Schedule.send) ->
      Printf.bprintf b "%d %d %d %d %h %h\n" s.Schedule.chunk s.Schedule.edge s.Schedule.src
        s.Schedule.dst s.Schedule.start s.Schedule.finish)
    (sends_of t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let hier_configs =
  [
    ("rfs:4x8x8", "reduce-scatter");
    ("torus:8x8x4", "all-gather");
    ("rfs:4x8x8", "all-reduce");
    ("torus:8x8x4", "all-reduce");
    ("torus:16x16", "all-reduce");
    ("rfs:8x8x8", "all-reduce");
    ("mesh:32x32", "all-gather");
  ]

let ok = function Ok v -> v | Error e -> failwith e

let hier_plan ~domains (topo_s, pattern_s) =
  let topo = ok (Parse.parse_topology topo_s) in
  let npus = Topology.num_npus topo in
  let pattern = ok (Parse.parse_pattern pattern_s npus) in
  let spec = Spec.make ~chunks_per_npu:1 ~buffer_size:64e6 ~pattern ~npus () in
  let groups = ok (Plan.decompose topo Plan.Auto) in
  (topo, spec, Plan.synthesize ~seed:1 ~trials:1 ~domains topo spec ~groups)

(* Composed schedule, then the phase split's halves ("-" when none). *)
let plan_digests (plan : Plan.t) =
  let r = plan.Plan.result in
  let phases =
    match r.Synth.phases with Some (rs, ag) -> [ digest rs; digest ag ] | None -> [ "-"; "-" ]
  in
  digest r.Synth.schedule :: phases

let golden =
  [
    ("rfs:4x8x8/reduce-scatter", [ "d46c5195edc01b10c3a42877ba3dff1f"; "-"; "-" ]);
    ("torus:8x8x4/all-gather", [ "c55a496545d6be4061cdc7701642fd32"; "-"; "-" ]);
    ( "rfs:4x8x8/all-reduce",
      [ "2663703d2f3733c044c72aadd240251a"; "d46c5195edc01b10c3a42877ba3dff1f";
        "625bcac14d4d510823cf2e2cf8aaa3f8" ] );
    ( "torus:8x8x4/all-reduce",
      [ "0894d2faab689796bb04d3b592767b83"; "a284924406e942f669f0f46181b08ed2";
        "73434e9ba56590853f6d02f84bfb26f1" ] );
    ( "torus:16x16/all-reduce",
      [ "f7343094812345f7d2ee187637745360"; "0ae279404e10714d25e829c775984441";
        "539d9e44b414853e82dec1fcad3a4208" ] );
    ( "rfs:8x8x8/all-reduce",
      [ "9fbd2da74ec14a58bd2133cf83a5ad81"; "14c0b806a568996656f0bbe34f8858a2";
        "fd31a7b18582da575c81aa14c57bc39c" ] );
    ("mesh:32x32/all-gather", [ "defae4db2371a01818ce26afb47c7955"; "-"; "-" ]);
  ]

let test_hier_golden () =
  List.iter2
    (fun config (name, expected) ->
      let _, _, plan = hier_plan ~domains:1 config in
      let got = plan_digests plan in
      Alcotest.(check (list string)) name expected got;
      let _, _, par = hier_plan ~domains:2 config in
      Alcotest.(check (list string)) (name ^ " at 2 domains") got (plan_digests par))
    hier_configs golden

(* --- to_json bytes ---------------------------------------------------------- *)

(* Times whose shortest exact %.17g spelling differs in form: integral,
   exponent, subnormal-adjacent, repeating fractions, negative zero. *)
let odd_schedule () =
  let ts = [| 0.; -0.; 1.; 0.1; 1. /. 3.; 1e21; 1e-300; 123456789.125; 2.5e-7; 1e15 +. 0.3 |] in
  Schedule.make
    (List.init 40 (fun i ->
         let t = ts.(i mod Array.length ts) in
         {
           Schedule.chunk = i mod 7;
           edge = (i * 3) mod 11;
           src = i mod 5;
           dst = (i + 1) mod 5;
           start = t;
           finish = t +. ts.((i / 3) mod Array.length ts) *. 2.;
         }))

let md5 s = Digest.to_hex (Digest.string s)

let json_cases () =
  let odd = odd_schedule () in
  let _, rs_spec, rs_plan = hier_plan ~domains:1 ("rfs:4x8x8", "reduce-scatter") in
  let topo = Builders.dgx1 () in
  let ar_spec = Spec.make ~chunks_per_npu:2 ~buffer_size:64e6 ~pattern:Pattern.All_reduce ~npus:8 () in
  let ar = Synth.synthesize ~seed:3 topo ar_spec in
  [
    ("odd times", Schedule.to_json odd, "231ef81b3959a47dee5774cf17403f93");
    ("odd times with spec", Schedule.to_json ~spec:ar_spec odd, "0bc4661d0347cd32a892b0ed44dd6a41");
    ("empty", Schedule.to_json Schedule.empty, "7db988bd38085127a81ffaac5149b08e");
    ("dgx1 all-reduce", Schedule.to_json ~spec:ar_spec ar.Synth.schedule, "53faaedd05e65509764b209230bb6c92");
    ( "rfs:4x8x8 reduce-scatter, composed",
      Schedule.to_json ~spec:rs_spec rs_plan.Plan.result.Synth.schedule,
      "aa41e8d6a02056c5bf1804001b6d4c43" );
  ]

let test_to_json_golden () =
  List.iter
    (fun (name, text, expected) ->
      Alcotest.(check string) name expected (md5 text))
    (json_cases ())

let () =
  Alcotest.run "schedule-equiv"
    [
      ( "transforms",
        List.map QCheck_alcotest.to_alcotest
          [ prop_make; prop_shift; prop_reverse; prop_concat; prop_union ] );
      ( "compose",
        List.map QCheck_alcotest.to_alcotest [ prop_compose; prop_compose_union ] );
      ( "validators",
        List.map QCheck_alcotest.to_alcotest
          [ prop_validate; prop_validate_positioned; prop_validate_reduction ] );
      ( "golden",
        [
          Alcotest.test_case "hier-scale digests" `Slow test_hier_golden;
          Alcotest.test_case "to_json bytes" `Quick test_to_json_golden;
        ] );
    ]
