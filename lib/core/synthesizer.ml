(* Namespaces of the substrate libraries. *)
open Tacos_topology
open Tacos_collective
module Rng = Tacos_util.Rng
module Pq = Tacos_util.Pq
module Ivec = Tacos_util.Ivec
module Pool = Tacos_util.Pool
module Deadline = Tacos_util.Deadline
module Obs = Tacos_obs.Obs
module Trace = Tacos_obs.Trace
module Ten = Tacos_ten.Ten
module Iset = Set.Make (Int)

let obs_rounds = Obs.counter "synth.rounds"
let obs_matches = Obs.counter "synth.matches"
let obs_pick_scans = Obs.counter "synth.pick_scans"
let obs_memo_hits = Obs.counter "synth.memo_hits"
let obs_idle_links = Obs.histogram "synth.idle_links"
let obs_scan_len = Obs.histogram "synth.pick_scan_len"
let obs_trial_makespan = Obs.histogram "synth.trial_makespan"
let obs_trial_timer = Obs.timer "synth.trial_seconds"

(* Bumped once per trial that runs over a caller-cached {!Ten.Expansion}
   instead of re-materializing the per-link arrays — the counter mid-flight
   repair uses to prove it reuses the healthy synthesis's TEN state. *)
let obs_ten_reuse = Obs.counter "synth.repair_ten_reuse"

type stats = { wall_seconds : float; rounds : int; matches : int; trials : int }

type result = {
  spec : Spec.t;
  schedule : Schedule.t;
  collective_time : float;
  phases : (Schedule.t * Schedule.t) option;
  stats : stats;
}

exception Unsupported of string
exception Stuck of string
exception Deadline_exceeded

(* The matcher-facing compilation target of a communication sketch
   ([Tacos_sketch.Sketch.compile]): plain link/chunk id lists, already
   validated structurally by the sketch layer. The synthesizer re-checks
   only cheap range invariants — callers handing a malformed record get
   [Invalid_argument], not a typed infeasibility. *)
type constraints = {
  forbid : int list;  (** link ids that must carry nothing *)
  prefer : (int * float) list;
      (** (link id, weight > 0): divide the link's §IV-F ordering cost by
          the weight, so weighted links sort (and match) first *)
  pin : (int * int list) list;
      (** (chunk id, route): the chunk may only travel the route's links *)
}

let no_constraints = { forbid = []; prefer = []; pin = [] }

(* A synthesis goal in positional form: where the chunks are and where they
   must end up, untied from any collective pattern. Specs lower to goals
   ([goal_of_spec]); mid-flight repair builds goals directly from the chunk
   positions observed at the fault time.

   Reduction state rides along as two extra fields. [contributors] lists the
   ranks whose input each chunk reduces over (empty for a pure-movement
   goal); [partials] lists in-flight partial sums — a copy at [npu] of
   [chunk] that has absorbed exactly the contributions of [absorbed]. The
   [precondition] then lists only *fully reduced* copies. Per chunk, the
   active partials' absorbed sets must partition the contributor set not yet
   covered by a full copy — the invariant reduction replay maintains. *)
type goal = {
  num_chunks : int;
  chunk_size : float;
  precondition : (int * int) list;
  postcondition : (int * int) list;
  contributors : (int * int) list;
  partials : (int * int * int list) list;
}

let goal_of_spec spec =
  {
    num_chunks = Spec.num_chunks spec;
    chunk_size = Spec.chunk_size spec;
    precondition = Spec.precondition spec;
    postcondition = Spec.postcondition spec;
    contributors = [];
    partials = [];
  }

let validate_goal ~num_npus:n goal =
  if goal.num_chunks <= 0 then
    invalid_arg "Synthesizer: goal.num_chunks must be positive";
  if not (goal.chunk_size > 0.) then
    invalid_arg "Synthesizer: goal.chunk_size must be positive";
  let check_pair what (d, c) =
    if d < 0 || d >= n then
      invalid_arg (Printf.sprintf "Synthesizer: goal %s names NPU %d" what d);
    if c < 0 || c >= goal.num_chunks then
      invalid_arg (Printf.sprintf "Synthesizer: goal %s names chunk %d" what c)
  in
  List.iter (check_pair "precondition") goal.precondition;
  List.iter (check_pair "postcondition") goal.postcondition;
  List.iter (check_pair "contributors") goal.contributors;
  List.iter
    (fun (v, c, absorbed) ->
      check_pair "partials" (v, c);
      List.iter (fun r -> check_pair "partials" (r, c)) absorbed)
    goal.partials

(* A mask over [m] link ids with the [dead] ones set. *)
let dead_mask m dead =
  let mask = Array.make m false in
  List.iter
    (fun e ->
      if e < 0 || e >= m then invalid_arg "Synthesizer: dead link out of range";
      mask.(e) <- true)
    dead;
  mask

(* A postcondition (d, c) is satisfiable iff some initial holder of c
   reaches d over the links outside [dead] (and, for a chunk with a pin,
   inside its route). One walk per distinct (route, holder), cached. *)
let unreachable topo ~dead ~pin goal =
  let n = Topology.num_npus topo in
  let dead = dead_mask (Topology.num_links topo) dead in
  let routes = Hashtbl.create 8 in
  List.iter
    (fun (c, route) ->
      let set = Iset.of_list route in
      Hashtbl.replace routes c
        (match Hashtbl.find_opt routes c with
        | None -> set
        | Some prev -> Iset.inter prev set))
    pin;
  let reach_cache = Hashtbl.create 8 in
  let reaches c h d =
    let route = Hashtbl.find_opt routes c in
    let key = ((if route = None then -1 else c), h) in
    let seen =
      match Hashtbl.find_opt reach_cache key with
      | Some seen -> seen
      | None ->
        let seen = Array.make n false in
        let allowed e =
          (not dead.(e)) && match route with None -> true | Some r -> Iset.mem e r
        in
        let rec visit v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter
              (fun (e : Topology.edge) -> if allowed e.id then visit e.dst)
              (Topology.out_edges topo v)
          end
        in
        visit h;
        Hashtbl.add reach_cache key seen;
        seen
    in
    seen.(d)
  in
  let holders = Hashtbl.create 16 in
  List.iter
    (fun (v, c) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt holders c) in
      Hashtbl.replace holders c (v :: prev))
    goal.precondition;
  List.filter
    (fun (d, c) ->
      match Hashtbl.find_opt holders c with
      | None -> true
      | Some hs -> not (List.exists (fun h -> reaches c h d) hs))
    goal.postcondition

(* Fail fast on broken fabrics. With no dead link, strong connectivity
   implies every postcondition is reachable, so the O(n·(n+m)) walk only
   runs after that cheap test fails — the healthy-fabric path pays one DFS
   pair per trial. *)
let check_feasible exp ~dead goal =
  let topo = Ten.Expansion.topology exp in
  if dead <> [] || not (Topology.is_strongly_connected topo) then
    (* Empty e.g. for a Broadcast whose root reaches everyone. *)
    match unreachable topo ~dead ~pin:[] goal with
    | [] -> ()
    | unreachable ->
      let total = List.length unreachable in
      let shown = List.filteri (fun i _ -> i < 6) unreachable in
      let pairs =
        String.concat ", "
          (List.map (fun (d, c) -> Printf.sprintf "chunk %d -> NPU %d" c d) shown)
      in
      let suffix = if total > List.length shown then ", ..." else "" in
      raise
        (Stuck
           (Printf.sprintf
              "topology is not strongly connected: %d unreachable \
               postcondition%s (%s%s)"
              total
              (if total = 1 then "" else "s")
              pairs suffix))

(* Each link's rank among the distinct values of [cost] in [compare] order,
   and the number of distinct values. A stable counting sort by rank orders
   links as [Array.stable_sort] by [compare] on [cost] does. *)
let cost_ranks cost =
  let m = Array.length cost in
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> compare cost.(a) cost.(b)) order;
  let rank = Array.make m 0 and next = ref 0 in
  for i = 0 to m - 1 do
    if i > 0 && compare cost.(order.(i - 1)) cost.(order.(i)) <> 0 then incr next;
    rank.(order.(i)) <- !next
  done;
  (rank, if m = 0 then 0 else !next + 1)

let[@inline] swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let[@inline] swap_float (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Put a send log, oldest first, in the order [Schedule.make] gives the
   newest-first list, so that [Schedule.of_arrays] builds the schedule
   [make] did. A log already in (start, finish) order only has each run of
   equal pairs reversed, and [of_arrays] finds it sorted; any other log is
   reversed whole, and [of_arrays] stable-sorts it. *)
let newest_first ~chunk ~edge ~src ~dst ~start ~finish =
  let n = Array.length chunk in
  let reverse lo hi =
    let i = ref lo and j = ref (hi - 1) in
    while !i < !j do
      swap chunk !i !j;
      swap edge !i !j;
      swap src !i !j;
      swap dst !i !j;
      swap_float start !i !j;
      swap_float finish !i !j;
      incr i;
      decr j
    done
  in
  let ordered = ref true in
  for i = 1 to n - 1 do
    if start.(i - 1) > start.(i) || (start.(i - 1) = start.(i) && finish.(i - 1) > finish.(i))
    then ordered := false
  done;
  if !ordered then begin
    let lo = ref 0 in
    for i = 1 to n do
      if i = n || start.(i) <> start.(!lo) || finish.(i) <> finish.(!lo) then begin
        reverse !lo i;
        lo := i
      end
    done
  end
  else reverse 0 n

(* One synthesis trial of a pull-based (non-combining) pattern: All-Gather or
   Broadcast. This is Alg. 2 with Alg. 1 run at every event time.

   The matching loop decomposes exactly per destination: every link has a
   single destination NPU, so matches competing for a link always serve the
   same destination, and a chunk may legally leave one source over several
   links at once. We therefore iterate over idle links (cheapest first, random
   tie-break) and pick a random chunk from [holds(src) ∩ wants(dst)] — the
   same greedy maximal matching as iterating shuffled postconditions, found
   by scanning whichever of the two sets is smaller. *)
let synthesize_pull ~prefer_cheap_links ?deadline ?reuse ?(dead = [])
    ?(slowed = []) ?(constraints = no_constraints) rng topo goal =
  let exp =
    match reuse with Some e -> e | None -> Ten.Expansion.prepare topo
  in
  let n = Ten.Expansion.num_npus exp in
  let num_chunks = goal.num_chunks in
  let chunk_size = goal.chunk_size in
  let m = Ten.Expansion.num_links exp in
  if m = 0 && n > 1 then raise (Stuck "topology has no links");
  (* Per-link constants. [src]/[dst] alias the expansion's arrays (read-only
     here); the cost array is per-trial since [slowed] scales links. *)
  let src = Ten.Expansion.src exp and dst = Ten.Expansion.dst exp in
  let alpha = Ten.Expansion.alpha exp and beta = Ten.Expansion.beta exp in
  let cost = Array.init m (fun e -> alpha.(e) +. (beta.(e) *. chunk_size)) in
  List.iter
    (fun (e, factor) ->
      if e < 0 || e >= m then invalid_arg "Synthesizer: slowed link out of range";
      if not (factor >= 1.) then
        invalid_arg "Synthesizer: slowdown factor must be >= 1";
      cost.(e) <- cost.(e) *. factor)
    slowed;
  (* Forbidden links ride the dead-link machinery: never free, masked out of
     the feasibility check, absent from the candidate scan — and an empty
     sketch leaves the RNG draw sequence bit-identical. *)
  let dead =
    match constraints.forbid with
    | [] -> dead
    | forbid ->
      List.iter
        (fun e ->
          if e < 0 || e >= m then
            invalid_arg "Synthesizer: sketch forbids a link out of range")
        forbid;
      dead @ forbid
  in
  (* Preference weights bias only the §IV-F match *ordering*, never the
     transfer duration: sorting reads [order_cost], the schedule [cost]. *)
  let order_cost =
    match constraints.prefer with
    | [] -> cost
    | prefs ->
      let oc = Array.copy cost in
      List.iter
        (fun (e, w) ->
          if e < 0 || e >= m then
            invalid_arg "Synthesizer: sketch prefers a link out of range";
          if not (w > 0.) then
            invalid_arg "Synthesizer: sketch preference weight must be positive";
          oc.(e) <- oc.(e) /. w)
        prefs;
      oc
  in
  (* Per-chunk allowed-route sets; duplicate pins of one chunk intersect. *)
  let has_pins = constraints.pin <> [] in
  let pins =
    if not has_pins then [||]
    else begin
      let a = Array.make num_chunks None in
      List.iter
        (fun (c, route) ->
          if c < 0 || c >= num_chunks then
            invalid_arg "Synthesizer: sketch pins a chunk out of range";
          List.iter
            (fun e ->
              if e < 0 || e >= m then
                invalid_arg "Synthesizer: sketch pin names a link out of range")
            route;
          let set = Iset.of_list route in
          a.(c) <-
            Some (match a.(c) with None -> set | Some prev -> Iset.inter prev set))
        constraints.pin;
      a
    end
  in
  (* Whether pinned chunk [c] may cross link [e]; read only when [has_pins]. *)
  let pin_ok e c = match pins.(c) with None -> true | Some route -> Iset.mem e route in
  check_feasible exp ~dead goal;
  (* Chunk placement state. *)
  let arrival = Array.make_matrix n num_chunks infinity in
  let holds = Array.init n (fun _ -> Ivec.create ()) in
  (* wants.(d) lists the chunks of d's still-unsatisfied postconditions;
     wants_pos.(d).(c) is c's index inside it (-1 when absent). *)
  let wants = Array.init n (fun _ -> Ivec.create ()) in
  let wants_pos = Array.make_matrix n num_chunks (-1) in
  List.iter
    (fun (d, c) ->
      if arrival.(d).(c) = infinity then begin
        arrival.(d).(c) <- 0.;
        Ivec.push holds.(d) c
      end)
    goal.precondition;
  let unsatisfied = ref 0 in
  List.iter
    (fun (d, c) ->
      if arrival.(d).(c) = infinity && wants_pos.(d).(c) < 0 then begin
        wants_pos.(d).(c) <- Ivec.length wants.(d);
        Ivec.push wants.(d) c;
        incr unsatisfied
      end)
    goal.postcondition;
  let link_free = Array.make m 0. in
  (* A dead link is simply never free again — the idle-link gather skips it,
     the event heap never schedules it, and (crucially) the RNG draw sequence
     of the healthy path is untouched when the mask is empty. *)
  List.iter (fun e -> link_free.(e) <- infinity) dead;
  (* Send finish times, keyed; the payload (the link) is unused. [next]
     is the cell [Pq.pop] writes each popped key into. *)
  let events = Pq.create () and next = [| 0. |] in
  (* The send log, oldest first: one send per unsatisfied postcondition. *)
  let total = !unsatisfied in
  let log_chunk = Array.make total 0 and log_edge = Array.make total 0 in
  let log_src = Array.make total 0 and log_dst = Array.make total 0 in
  let log_start = Array.make total 0. and log_finish = Array.make total 0. in
  let rounds = ref 0 and matches = ref 0 in
  let idle = Array.make m 0 in
  (* Idle links are ordered cheapest first by a stable counting sort on
     [rank] into [by_cost]. *)
  let rank, ranks = cost_ranks order_cost in
  let count = Array.make (ranks + 1) 0 and by_cost = Array.make m 0 in
  let now = ref 0. in
  (* Failed-scan memoization: a link that found no matchable chunk needs no
     rescan until its source gains a chunk or its destination's wants
     change. This keeps the per-round work proportional to state changes,
     preserving the O(n^2)-in-search-space scaling of §VI-C. *)
  let has_version = Array.make n 0 in
  let wants_version = Array.make n 0 in
  let scanned_has = Array.make m (-1) in
  let scanned_wants = Array.make m (-1) in
  (* Pick a chunk that [s] holds (arrived by [now]) and [d] still wants, by
     scanning the smaller of the two sets circularly from a random index.
     [saw_pending] is set when a candidate was rejected only because it is
     still in flight towards [s] — such a failure must not be memoized,
     since it resolves without any version bump. Pin filtering precedes the
     arrival check: a pinned-away chunk is a *static* rejection, so it must
     not set [saw_pending] (which would defeat the failed-scan memoization
     below). *)
  let saw_pending = ref false in
  let obs_on = Obs.enabled () in
  let probes = ref 0 in
  let scan_holds e s d =
    let set = holds.(s) in
    let len = Ivec.length set in
    if len = 0 then -1
    else begin
      let data = Ivec.data set and wanted = wants_pos.(d) and arrived = arrival.(s) in
      let t = !now in
      let i = ref (Rng.int rng len) and left = ref len and found = ref (-1) in
      while !found < 0 && !left > 0 do
        let c = data.(!i) in
        if obs_on then incr probes;
        if wanted.(c) >= 0 && ((not has_pins) || pin_ok e c) then begin
          if arrived.(c) <= t then found := c else saw_pending := true
        end;
        i := if !i + 1 = len then 0 else !i + 1;
        decr left
      done;
      !found
    end
  in
  let scan_wants e s d =
    let set = wants.(d) in
    let len = Ivec.length set in
    if len = 0 then -1
    else begin
      let data = Ivec.data set and arrived = arrival.(s) in
      let t = !now in
      let i = ref (Rng.int rng len) and left = ref len and found = ref (-1) in
      while !found < 0 && !left > 0 do
        let c = data.(!i) in
        if obs_on then incr probes;
        if (not has_pins) || pin_ok e c then begin
          let a = arrived.(c) in
          if a <= t then found := c else if a < infinity then saw_pending := true
        end;
        i := if !i + 1 = len then 0 else !i + 1;
        decr left
      done;
      !found
    end
  in
  let pick_chunk e s d =
    saw_pending := false;
    probes := 0;
    let found =
      if Ivec.length holds.(s) <= Ivec.length wants.(d) then scan_holds e s d
      else scan_wants e s d
    in
    if obs_on then begin
      Obs.incr obs_pick_scans;
      Obs.observe obs_scan_len (float_of_int !probes)
    end;
    found
  in
  let remove_want d c =
    let i = wants_pos.(d).(c) in
    let moved = Ivec.swap_remove wants.(d) i in
    wants_pos.(d).(c) <- -1;
    if moved >= 0 then wants_pos.(d).(moved) <- i
  in
  (* One expansion round (§IV-F), bound once so the traced loop below
     allocates nothing per iteration when tracing is off. *)
  let round_body () =
    incr rounds;
    Obs.incr obs_rounds;
    let t = !now in
    (* Gather the idle links, shuffle, then order cheapest-first (§IV-F). *)
    let idle_count = ref 0 in
    for e = 0 to m - 1 do
      if link_free.(e) <= t && Ivec.length wants.(dst.(e)) > 0 then begin
        idle.(!idle_count) <- e;
        incr idle_count
      end
    done;
    let k = !idle_count in
    if obs_on then Obs.observe obs_idle_links (float_of_int k);
    Rng.shuffle_prefix rng idle k;
    let order =
      if not prefer_cheap_links then idle
      else begin
        for i = 0 to k - 1 do
          let r = rank.(idle.(i)) + 1 in
          count.(r) <- count.(r) + 1
        done;
        (* Now [count.(r)] is the first slot of rank [r]. *)
        for r = 1 to ranks do
          count.(r) <- count.(r) + count.(r - 1)
        done;
        for i = 0 to k - 1 do
          let e = idle.(i) in
          let r = rank.(e) in
          by_cost.(count.(r)) <- e;
          count.(r) <- count.(r) + 1
        done;
        Array.fill count 0 (ranks + 1) 0;
        by_cost
      end
    in
    for i = 0 to k - 1 do
      let e = order.(i) in
      let d = dst.(e) and s = src.(e) in
      if Ivec.length wants.(d) > 0 then begin
        if scanned_has.(e) = has_version.(s) && scanned_wants.(e) = wants_version.(d)
        then Obs.incr obs_memo_hits
        else begin
          let c = pick_chunk e s d in
          if c >= 0 then begin
            let finish = t +. cost.(e) in
            let j = !matches in
            log_chunk.(j) <- c;
            log_edge.(j) <- e;
            log_src.(j) <- s;
            log_dst.(j) <- d;
            log_start.(j) <- t;
            log_finish.(j) <- finish;
            arrival.(d).(c) <- finish;
            Ivec.push holds.(d) c;
            has_version.(d) <- has_version.(d) + 1;
            remove_want d c;
            wants_version.(d) <- wants_version.(d) + 1;
            link_free.(e) <- finish;
            Pq.push events finish e;
            decr unsatisfied;
            incr matches;
            Obs.incr obs_matches
          end
          else if not !saw_pending then begin
            scanned_has.(e) <- has_version.(s);
            scanned_wants.(e) <- wants_version.(d)
          end
        end
      end
    done;
    if !unsatisfied > 0 then begin
      (* Advance past [t] to the next distinct finish time. *)
      next.(0) <- t;
      while next.(0) <= t && not (Pq.is_empty events) do
        ignore (Pq.pop events next)
      done;
      if next.(0) > t then now := next.(0)
      else
        raise
          (Stuck
             (Printf.sprintf
                "no progress possible with %d postconditions unsatisfied — is \
                 the topology strongly connected?"
                !unsatisfied))
    end
  in
  (* The cooperative cancellation point: one wall-clock poll per expansion
     round, between rounds — a round's matching work is never left half
     applied, and a raise here publishes no partial schedule. *)
  while !unsatisfied > 0 do
    (match deadline with
    | Some d when Deadline.expired d -> raise Deadline_exceeded
    | _ -> ());
    Trace.with_span "round" round_body
  done;
  newest_first ~chunk:log_chunk ~edge:log_edge ~src:log_src ~dst:log_dst ~start:log_start
    ~finish:log_finish;
  ( Schedule.of_arrays ~chunk:log_chunk ~edge:log_edge ~src:log_src ~dst:log_dst
      ~start:log_start ~finish:log_finish,
    !rounds,
    !matches )

let synthesize_simple ~prefer_cheap_links ?deadline ~constraints rng topo
    (spec : Spec.t) =
  match spec.pattern with
  | Pattern.All_gather | Pattern.Broadcast _ ->
    synthesize_pull ~prefer_cheap_links ?deadline ~constraints rng topo
      (goal_of_spec spec)
  | Pattern.Reduce_scatter | Pattern.Reduce _ ->
    (* §IV-E: synthesize the non-combining counterpart on the reversed
       topology, then mirror the schedule in time and direction. Link ids
       are preserved by the reversal, so the same sketch constraints apply
       verbatim to the mirrored phase. *)
    let sched, rounds, matches =
      synthesize_pull ~prefer_cheap_links ?deadline ~constraints rng
        (Topology.reverse topo)
        (goal_of_spec (Spec.reverse spec))
    in
    (Schedule.reverse sched, rounds, matches)
  | Pattern.All_reduce -> assert false (* handled by the caller *)
  | Pattern.Gather _ | Pattern.Scatter _ ->
    raise
      (Unsupported
         (Pattern.name spec.pattern
         ^ ": rooted gather/scatter have no pulling intermediate \
            postconditions; use the time-space router (Tacos.Router)"))
  | Pattern.All_to_all ->
    raise
      (Unsupported
         "All-to-All has pairwise demands the matching loop cannot pull; \
          use Tacos.Router")

(* One full trial: the schedule and its phase split, rounds, matches. *)
let trial ~prefer_cheap_links ?deadline ~constraints topo (spec : Spec.t) rng =
  match spec.pattern with
  | Pattern.All_reduce ->
    let rs, r1, m1 =
      synthesize_simple ~prefer_cheap_links ?deadline ~constraints rng topo
        (Spec.with_pattern spec Pattern.Reduce_scatter)
    in
    let ag, r2, m2 =
      synthesize_simple ~prefer_cheap_links ?deadline ~constraints rng topo
        (Spec.with_pattern spec Pattern.All_gather)
    in
    let ag_shifted = Schedule.shift ag rs.Schedule.makespan in
    ((Schedule.union rs ag_shifted, Some (rs, ag_shifted)), r1 + r2, m1 + m2)
  | _ ->
    let sched, rounds, matches =
      synthesize_simple ~prefer_cheap_links ?deadline ~constraints rng topo spec
    in
    ((sched, None), rounds, matches)

(* The randomized search (§IV-F): [trials] runs of [trial], each from its own
   RNG, keeping the first of lowest [makespan]. Per-trial seeds are drawn up
   front and results are merged in index order, so the outcome does not
   depend on how the trials spread over [domains]. Trials run on the shared
   pool so trial- and group-parallelism draw from one worker budget. *)
let run_trials ~seed ~trials ~domains ~makespan trial =
  if trials <= 0 then invalid_arg "Synthesizer: trials must be positive";
  if domains <= 0 then invalid_arg "Synthesizer: domains must be positive";
  let t0 = Unix.gettimeofday () in
  let master = Rng.create seed in
  let seeds = Array.init trials (fun _ -> Int64.to_int (Rng.bits64 master)) in
  let run_trial i =
    (* Stamp every Obs/Trace record of this trial — including the rounds of
       a worker domain — with the trial index, so interleaved multi-domain
       buffers stay attributable. *)
    Obs.with_trial i (fun () ->
        Trace.with_span "trial" (fun () ->
            let ((result, _, _) as out) =
              Obs.time obs_trial_timer (fun () -> trial (Rng.create seeds.(i)))
            in
            Obs.observe obs_trial_makespan (makespan result);
            out))
  in
  let results =
    if domains = 1 || trials = 1 then Array.init trials run_trial
    else Pool.map (Pool.global ~size:domains ()) run_trial trials
  in
  let best = ref 0 and rounds = ref 0 and matches = ref 0 in
  Array.iteri
    (fun i (result, r, m) ->
      rounds := !rounds + r;
      matches := !matches + m;
      let best_result, _, _ = results.(!best) in
      if makespan result < makespan best_result then best := i)
    results;
  let result, _, _ = results.(!best) in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (result, { wall_seconds; rounds = !rounds; matches = !matches; trials })

let synthesize ?(seed = 42) ?(trials = 1) ?(domains = 1) ?(prefer_cheap_links = true)
    ?deadline ?(sketch = no_constraints) topo spec =
  if Topology.num_npus topo <> spec.Spec.npus then
    invalid_arg "Synthesizer.synthesize: spec NPU count does not match topology";
  (* Force the topology's lazy caches before sharing it across domains. *)
  ignore (Topology.edges topo);
  let (schedule, phases), stats =
    run_trials ~seed ~trials ~domains
      ~makespan:(fun (sched, _) -> sched.Schedule.makespan)
      (trial ~prefer_cheap_links ?deadline ~constraints:sketch topo spec)
  in
  { spec; schedule; collective_time = schedule.Schedule.makespan; phases; stats }

(* --- reduction-aware plan synthesis ------------------------------------ *)

type plan = { combining : Schedule.t; pull : Schedule.t }

(* Per-chunk reduction bookkeeping derived from a goal, after normalizing
   partials that absorbed every contribution into precondition entries. *)
type reduction_state = {
  contrib : Iset.t array;  (* per chunk: contributing ranks *)
  actives : (int * Iset.t) list array;  (* per chunk: live partial copies *)
  full : (int * int) list;  (* fully-reduced copies, precondition form *)
}

let reduction_state_of_goal goal =
  let contrib = Array.make goal.num_chunks Iset.empty in
  List.iter
    (fun (v, c) -> contrib.(c) <- Iset.add v contrib.(c))
    goal.contributors;
  let actives = Array.make goal.num_chunks [] in
  let full = ref goal.precondition in
  List.iter
    (fun (v, c, absorbed) ->
      let set = Iset.of_list absorbed in
      if Iset.is_empty set then () (* spent copy: nothing left to move *)
      else if Iset.equal set contrib.(c) then full := (v, c) :: !full
      else if not (Iset.subset set contrib.(c)) then
        invalid_arg
          (Printf.sprintf
             "Synthesizer: partial at NPU %d absorbed a non-contributor of \
              chunk %d"
             v c)
      else
        (* Co-located partials are one accumulator; the double-absorption
           check below still sees the raw cardinalities. *)
        match List.assoc_opt v actives.(c) with
        | Some prev ->
          if not (Iset.disjoint prev set) then
            invalid_arg
              (Printf.sprintf
                 "Synthesizer: partial sums of chunk %d absorb a contribution \
                  twice"
                 c);
          actives.(c) <-
            (v, Iset.union prev set) :: List.remove_assoc v actives.(c)
        | None -> actives.(c) <- (v, set) :: actives.(c))
    goal.partials;
  (* Merging co-located partials can complete an accumulator; promote it. *)
  Array.iteri
    (fun c live ->
      let done_, still =
        List.partition (fun (_, s) -> Iset.equal s contrib.(c)) live
      in
      List.iter (fun (v, _) -> full := (v, c) :: !full) done_;
      actives.(c) <- still)
    actives;
  Array.iteri
    (fun c live ->
      (* The live partials must partition what full copies do not cover:
         pairwise disjoint, and — when no full copy of c exists but c has
         contributors and unmet postconditions — jointly exhaustive. *)
      let union =
        List.fold_left (fun acc (_, s) -> Iset.union acc s) Iset.empty live
      in
      let count = List.fold_left (fun acc (_, s) -> acc + Iset.cardinal s) 0 live in
      if count <> Iset.cardinal union then
        invalid_arg
          (Printf.sprintf
             "Synthesizer: partial sums of chunk %d absorb a contribution twice"
             c);
      let has_full = List.exists (fun (_, c') -> c' = c) !full in
      if live <> [] && has_full then
        invalid_arg
          (Printf.sprintf
             "Synthesizer: chunk %d has both a fully-reduced copy and live \
              partial sums"
             c);
      if
        live <> [] && (not has_full) && not (Iset.equal union contrib.(c))
      then
        invalid_arg
          (Printf.sprintf
             "Synthesizer: partial sums of chunk %d do not cover its \
              contributors"
             c))
    actives;
  (* Deterministic order regardless of input list order. *)
  Array.iteri
    (fun c live ->
      actives.(c) <- List.sort (fun (a, _) (b, _) -> compare a b) live)
    actives;
  { contrib; actives; full = !full }

(* Choose where chunk [c]'s partials combine: the postcondition holder when
   it is unique (Reduce-Scatter/Reduce repair — no spread follows), else the
   live partial holding the most contributions (ties to the lowest NPU id),
   which minimizes the data that must still move. *)
let combine_dest goal state c =
  match
    List.filter_map (fun (v, c') -> if c' = c then Some v else None)
      goal.postcondition
  with
  | [ v ] -> v
  | _ -> (
    match
      List.fold_left
        (fun best (v, set) ->
          let k = Iset.cardinal set in
          match best with
          | Some (_, bk) when bk >= k -> best
          | _ -> Some (v, k))
        None state.actives.(c)
    with
    | Some (v, _) -> v
    | None -> assert false (* only called with >= 2 live partials *))

(* The relay closure of chunk [c]: the union of shortest in-edge paths from
   every live partial holder to [dest], computed by BFS from [dest] over the
   masked fabric's reversed adjacency. Every relay on a path is included, so
   the mirrored pull goal below always has an adjacent holder/wanter pair to
   match — the matching loop never relays on its own. *)
let relay_closure exp ~dead_mask ~dest holders =
  let n = Ten.Expansion.num_npus exp in
  let in_links = Ten.Expansion.in_links exp in
  let src = Ten.Expansion.src exp in
  let next = Array.make n (-1) in
  (* next.(u) = the node after u on u's path towards dest *)
  let visited = Array.make n false in
  visited.(dest) <- true;
  let q = Queue.create () in
  Queue.add dest q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun e ->
        if (not dead_mask.(e)) && not visited.(src.(e)) then begin
          visited.(src.(e)) <- true;
          next.(src.(e)) <- v;
          Queue.add src.(e) q
        end)
      in_links.(v)
  done;
  List.fold_left
    (fun closure h ->
      if not visited.(h) then
        raise
          (Stuck
             (Printf.sprintf
                "partial sum at NPU %d cannot reach combine destination %d" h
                dest))
      else begin
        let rec walk v acc = if v = dest then acc else walk next.(v) (Iset.add v acc) in
        walk h closure
      end)
    (Iset.singleton dest) holders

let synthesize_goal_plan ?(seed = 42) ?(trials = 1) ?(domains = 1) ?reuse ?(dead = [])
    ?(slowed = []) topo goal =
  validate_goal ~num_npus:(Topology.num_npus topo) goal;
  let t0 = Unix.gettimeofday () in
  let exp =
    match reuse with Some e -> e | None -> Ten.Expansion.prepare topo
  in
  let dead_mask = dead_mask (Ten.Expansion.num_links exp) dead in
  let state = reduction_state_of_goal goal in
  (* Deterministic (RNG-free) combine structure, computed once: per chunk
     with >= 2 live partials, a destination and the relay closure of nodes
     whose (possibly empty) partials flow into it. *)
  let dests = ref [] in
  let combine_pre = ref [] and combine_post = ref [] in
  Array.iteri
    (fun c live ->
      match live with
      | [] | [ _ ] ->
        (* 0 live: nothing to combine (pure movement or full copy exists).
           1 live: by the partition invariant it holds every contribution —
           normalization already promoted it to a full copy. *)
        ()
      | _ :: _ :: _ ->
        let d = combine_dest goal state c in
        let holders = List.map fst live in
        let closure = relay_closure exp ~dead_mask ~dest:d holders in
        dests := (d, c) :: !dests;
        combine_pre := (d, c) :: !combine_pre;
        Iset.iter
          (fun v -> if v <> d then combine_post := (v, c) :: !combine_post)
          closure)
    state.actives;
  (* The combine phase is a pull goal on the *reversed* fabric: broadcast
     each chunk from its destination to the relay closure, then time-mirror
     (§IV-E). In the mirror every closure node sends its accumulated partial
     exactly once, and all its receives finish before that send starts — the
     exact semantics [Schedule.validate_reduction] replays. *)
  let combine_goal =
    {
      num_chunks = goal.num_chunks;
      chunk_size = goal.chunk_size;
      precondition = !combine_pre;
      postcondition = !combine_post;
      contributors = [];
      partials = [];
    }
  in
  (* The spread phase pulls fully-reduced copies — pre-existing ones plus
     the combine destinations — to the still-unmet postconditions. *)
  let spread_goal =
    {
      num_chunks = goal.num_chunks;
      chunk_size = goal.chunk_size;
      precondition = !dests @ state.full;
      postcondition = goal.postcondition;
      contributors = [];
      partials = [];
    }
  in
  (* Build the reversed view (and force lazy topology caches) before fanning
     out over domains — [Expansion.reversed] memoizes into shared state. *)
  let rexp = Ten.Expansion.reversed exp in
  let rtopo = Ten.Expansion.topology rexp in
  ignore (Topology.edges topo);
  ignore (Topology.edges rtopo);
  let need_combine = !combine_post <> [] in
  let plan, stats =
    run_trials ~seed ~trials ~domains
      ~makespan:(fun p ->
        Float.max p.combining.Schedule.makespan p.pull.Schedule.makespan)
      (fun rng ->
        if Option.is_some reuse then Obs.incr obs_ten_reuse;
        let combining, r1, m1 =
          if not need_combine then (Schedule.empty, 0, 0)
          else
            let s, r, m =
              synthesize_pull ~prefer_cheap_links:true ~reuse:rexp ~dead
                ~slowed rng rtopo combine_goal
            in
            (Schedule.reverse s, r, m)
        in
        let spread, r2, m2 =
          synthesize_pull ~prefer_cheap_links:true ~reuse:exp ~dead ~slowed
            rng topo spread_goal
        in
        let pull = Schedule.shift spread combining.Schedule.makespan in
        ({ combining; pull }, r1 + r2, m1 + m2))
  in
  (* The plan's wall clock includes the RNG-free setup above. *)
  (plan, { stats with wall_seconds = Unix.gettimeofday () -. t0 })

let verify topo result =
  match result.spec.Spec.pattern with
  | Pattern.All_reduce -> (
    match result.phases with
    | Some (rs, ag) ->
      Schedule.validate_all_reduce topo result.spec ~reduce_scatter:rs ~all_gather:ag
    | None -> Error "All-Reduce result carries no phase split")
  | _ -> Schedule.validate topo result.spec result.schedule
