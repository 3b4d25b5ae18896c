(* Namespaces of the substrate libraries. *)
open Tacos_topology

type send = {
  chunk : int;
  edge : int;
  src : int;
  dst : int;
  start : float;
  finish : float;
}

(* Send [i] is ([chunks.(i)], [edges.(i)], [srcs.(i)], [dsts.(i)],
   [starts.(i)], [finishes.(i)]). The arrays are never written after
   construction, so transformations share the ones they leave unchanged. *)
type t = {
  chunks : int array;
  edges : int array;
  srcs : int array;
  dsts : int array;
  starts : float array;
  finishes : float array;
  makespan : float;
}

(* Relative tolerance for floating-point time comparisons. *)
let eps_for makespan = 1e-9 +. (1e-9 *. Float.abs makespan)

let num_sends t = Array.length t.chunks

let get t i =
  {
    chunk = t.chunks.(i);
    edge = t.edges.(i);
    src = t.srcs.(i);
    dst = t.dsts.(i);
    start = t.starts.(i);
    finish = t.finishes.(i);
  }

let sends t = List.init (num_sends t) (get t)

(* --- order ----------------------------------------------------------------- *)

(* The stable (start, finish) order of [t]'s sends as a permutation, or
   [None] when they are in that order already. *)
let sort_order t =
  let st = t.starts and fi = t.finishes in
  let le x y = st.(x) < st.(y) || (st.(x) = st.(y) && fi.(x) <= fi.(y)) in
  let n = Array.length st in
  let i = ref 1 in
  while !i < n && le (!i - 1) !i do
    incr i
  done;
  if !i >= n then None
  else begin
    (* A bottom-up merge sort of the indices: insertion-sorted blocks, then
       merge passes of doubling width, ties in index order at every step. It
       took half the time of [Array.stable_sort] with a comparator closure
       on a 262K-send reversal. *)
    let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
    let block = 16 in
    let a = !src in
    for lo = 0 to (n - 1) / block do
      for k = (lo * block) + 1 to min n ((lo + 1) * block) - 1 do
        let x = a.(k) and j = ref (k - 1) in
        while !j >= lo * block && not (le a.(!j) x) do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    done;
    let width = ref block in
    while !width < n do
      let a = !src and b = !dst and w = !width in
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + w) n and hi = min (!lo + (2 * w)) n in
        let i = ref !lo and j = ref mid in
        for k = !lo to hi - 1 do
          if !j >= hi || (!i < mid && le a.(!i) a.(!j)) then begin
            b.(k) <- a.(!i);
            incr i
          end
          else begin
            b.(k) <- a.(!j);
            incr j
          end
        done;
        lo := hi
      done;
      src := b;
      dst := a;
      width := 2 * w
    done;
    Some !src
  end

let permute t order =
  let pick a = Array.map (fun i -> a.(i)) order in
  let pick_float (a : float array) =
    let b = Array.create_float (Array.length order) in
    Array.iteri (fun k i -> b.(k) <- a.(i)) order;
    b
  in
  {
    chunks = pick t.chunks;
    edges = pick t.edges;
    srcs = pick t.srcs;
    dsts = pick t.dsts;
    starts = pick_float t.starts;
    finishes = pick_float t.finishes;
    makespan = t.makespan;
  }

let sorted t = match sort_order t with None -> t | Some order -> permute t order

let check_intervals t =
  for i = 0 to num_sends t - 1 do
    let s = t.starts.(i) and f = t.finishes.(i) in
    if not (Float.is_finite s && Float.is_finite f) then
      invalid_arg "Schedule.make: non-finite send time";
    if s < 0. || f < s then invalid_arg "Schedule.make: bad send interval"
  done

let of_arrays ~chunk ~edge ~src ~dst ~start ~finish =
  let n = Array.length chunk in
  if
    Array.length edge <> n || Array.length src <> n || Array.length dst <> n
    || Array.length start <> n || Array.length finish <> n
  then invalid_arg "Schedule.of_arrays: arrays differ in length";
  let makespan = ref 0. in
  for i = 0 to n - 1 do
    makespan := Float.max !makespan finish.(i)
  done;
  let t =
    {
      chunks = chunk;
      edges = edge;
      srcs = src;
      dsts = dst;
      starts = start;
      finishes = finish;
      makespan = !makespan;
    }
  in
  check_intervals t;
  sorted t

let make sends =
  let a = Array.of_list sends in
  let floats f =
    let b = Array.create_float (Array.length a) in
    Array.iteri (fun i s -> b.(i) <- f s) a;
    b
  in
  of_arrays
    ~chunk:(Array.map (fun s -> s.chunk) a)
    ~edge:(Array.map (fun s -> s.edge) a)
    ~src:(Array.map (fun s -> s.src) a)
    ~dst:(Array.map (fun s -> s.dst) a)
    ~start:(floats (fun s -> s.start))
    ~finish:(floats (fun s -> s.finish))

let empty = make []

type relabel = { npu_of : int array; link_of : int array; chunk_of : int array }

(* Stable k-way merge of sorted runs: equal (start, finish) pairs keep their
   run's order, and the earlier run goes first. That is the order a stable
   sort of the runs' concatenation gives. A run with a relabelling is read
   through its tables as its sends are written. *)
let merge runs =
  let makespan = List.fold_left (fun acc (r, _) -> Float.max acc r.makespan) 0. runs in
  match List.filter (fun (r, _) -> num_sends r > 0) runs with
  | [] -> { empty with makespan }
  | [ (r, None) ] -> { r with makespan }
  | runs ->
    let relabels = Array.of_list (List.map snd runs) in
    let runs = Array.of_list (List.map fst runs) in
    let k = Array.length runs in
    let total = Array.fold_left (fun acc r -> acc + num_sends r) 0 runs in
    let chunks = Array.make total 0 and edges = Array.make total 0 in
    let srcs = Array.make total 0 and dsts = Array.make total 0 in
    let starts = Array.create_float total and finishes = Array.create_float total in
    (* A binary min-heap of the runs not yet drained, keyed by each run's
       next send, then by run index. *)
    let pos = Array.make k 0 in
    let heap = Array.init k Fun.id in
    let size = ref k in
    let before a b =
      let ra = runs.(a) and rb = runs.(b) in
      let sa = ra.starts.(pos.(a)) and sb = rb.starts.(pos.(b)) in
      sa < sb
      || sa = sb
         &&
         let fa = ra.finishes.(pos.(a)) and fb = rb.finishes.(pos.(b)) in
         fa < fb || (fa = fb && a < b)
    in
    let rec sift_down i =
      let l = (2 * i) + 1 in
      if l < !size then begin
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) heap.(i) then begin
          let x = heap.(i) in
          heap.(i) <- heap.(c);
          heap.(c) <- x;
          sift_down c
        end
      end
    in
    for i = (k / 2) - 1 downto 0 do
      sift_down i
    done;
    let o = ref 0 in
    while !o < total do
      (* One heap step emits the root run's whole stretch of sends that
         precede the runner-up's next send: the better child of the root. *)
      let r = heap.(0) in
      let run = runs.(r) and p = pos.(r) in
      let n = num_sends run in
      if !size = 1 then pos.(r) <- n
      else begin
        let c = if !size > 2 && before heap.(2) heap.(1) then heap.(2) else heap.(1) in
        pos.(r) <- p + 1;
        while pos.(r) < n && before r c do
          pos.(r) <- pos.(r) + 1
        done
      end;
      let q = pos.(r) in
      let len = q - p in
      (match relabels.(r) with
      | None ->
        Array.blit run.chunks p chunks !o len;
        Array.blit run.edges p edges !o len;
        Array.blit run.srcs p srcs !o len;
        Array.blit run.dsts p dsts !o len
      | Some { npu_of; link_of; chunk_of } ->
        for i = 0 to len - 1 do
          chunks.(!o + i) <- chunk_of.(run.chunks.(p + i));
          edges.(!o + i) <- link_of.(run.edges.(p + i));
          srcs.(!o + i) <- npu_of.(run.srcs.(p + i));
          dsts.(!o + i) <- npu_of.(run.dsts.(p + i))
        done);
      Array.blit run.starts p starts !o len;
      Array.blit run.finishes p finishes !o len;
      o := !o + len;
      if q = n then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down 0
    done;
    { chunks; edges; srcs; dsts; starts; finishes; makespan }

let union a b = merge [ (a, None); (b, None) ]

(* [t] on a clock [dt] later, before sorting: send [i] of the result is
   send [i] of [t]. *)
let translated t dt =
  let n = num_sends t in
  let starts = Array.create_float n and finishes = Array.create_float n in
  for i = 0 to n - 1 do
    starts.(i) <- t.starts.(i) +. dt;
    finishes.(i) <- t.finishes.(i) +. dt
  done;
  { t with starts; finishes; makespan = Array.fold_left Float.max 0. finishes }

let shift t dt =
  let t = translated t dt in
  check_intervals t;
  sorted t

(* The time mirror of [t] about its makespan, endpoints swapped, before
   sorting: send [i] of the mirror is send [i] of [t]. *)
let mirror t =
  let m = t.makespan in
  let n = num_sends t in
  let starts = Array.create_float n and finishes = Array.create_float n in
  for i = 0 to n - 1 do
    starts.(i) <- m -. t.finishes.(i);
    finishes.(i) <- m -. t.starts.(i)
  done;
  {
    t with
    srcs = t.dsts;
    dsts = t.srcs;
    starts;
    finishes;
    makespan = Array.fold_left Float.max 0. finishes;
  }

let reverse t = sorted (mirror t)
let concat a b = union a (shift b a.makespan)

let phase_of_send ~reduce_scatter s =
  (* A send of the concatenated All-Reduce belongs to the All-Gather phase
     iff it starts at or after the Reduce-Scatter makespan (the phases butt
     up exactly, so compare with the shared tolerance). *)
  let eps = eps_for reduce_scatter.makespan in
  if s.start +. eps >= reduce_scatter.makespan then "all-gather" else "reduce-scatter"

(* --- validation ------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* Per-link state of a validation pass: endpoints and α-β cost of one chunk,
   read once from the topology, and when each link is next free. *)
type links = {
  lsrc : int array;
  ldst : int array;
  lcost : float array;
  last_free : float array;
}

let links_of topo ~chunk_size =
  let edges = Array.init (Topology.num_links topo) (Topology.edge topo) in
  {
    lsrc = Array.map (fun (e : Topology.edge) -> e.src) edges;
    ldst = Array.map (fun (e : Topology.edge) -> e.dst) edges;
    lcost = Array.map (fun (e : Topology.edge) -> Link.cost e.link chunk_size) edges;
    last_free = Array.make (Array.length edges) neg_infinity;
  }

(* [forbidden] lists (link id, dead-from time) pairs: any send that overlaps
   a link's dead interval is illegal. Mid-flight repair validates composite
   (kept prefix + patches) schedules on the *healthy* topology this way —
   kept sends legitimately rode the link before it died. *)
let check_forbidden ~eps forbidden t i =
  List.iter
    (fun (link, from) ->
      if t.edges.(i) = link && t.finishes.(i) > from +. eps then
        bad "send of chunk %d rides link %d after it died at %g" t.chunks.(i) link from)
    forbidden

(* Physical legality of send [i]: a known chunk on a known link whose
   endpoints it matches, not on a dead link, no shorter than the link's α-β
   cost, and the link free. The link is then busy until the send finishes. *)
let check_physical links ~eps ~forbidden ~num_chunks t i =
  let chunk = t.chunks.(i) and e = t.edges.(i) in
  let start = t.starts.(i) and finish = t.finishes.(i) in
  if chunk < 0 || chunk >= num_chunks then bad "send of unknown chunk %d" chunk;
  if e < 0 || e >= Array.length links.lsrc then bad "send over unknown link %d" e;
  if links.lsrc.(e) <> t.srcs.(i) || links.ldst.(e) <> t.dsts.(i) then
    bad "send %d->%d does not match link %d (%d->%d)" t.srcs.(i) t.dsts.(i) e
      links.lsrc.(e) links.ldst.(e);
  if forbidden <> [] then check_forbidden ~eps forbidden t i;
  if finish -. start < links.lcost.(e) -. eps then
    bad "send of chunk %d on link %d shorter than its α-β cost" chunk e;
  if start < links.last_free.(e) -. eps then bad "link %d carries two chunks at once" e;
  links.last_free.(e) <- finish

(* The non-combining validator over the sends of [t] in [order] (array
   order when [None]): physical legality, then causality against a dense
   (NPU, chunk) arrival table seeded by [precondition], then every pair of
   [postcondition]. Both conditions are iterators, so a spec's conditions
   need no list. *)
let check_positions topo ~forbidden ~precondition ~postcondition ~num_chunks ~chunk_size
    ?order t =
  let eps = eps_for t.makespan in
  let npus = Topology.num_npus topo in
  let chunks = num_chunks in
  let cell d c =
    if d < 0 || d >= npus || c < 0 || c >= chunks then invalid_arg "index out of bounds";
    (d * chunks) + c
  in
  (* arrival.(d * chunks + c): earliest time chunk c is known to be at NPU d. *)
  let arrival = Array.make (npus * chunks) infinity in
  precondition (fun d c -> arrival.(cell d c) <- 0.);
  let links = links_of topo ~chunk_size in
  for k = 0 to num_sends t - 1 do
    let i = match order with None -> k | Some o -> o.(k) in
    check_physical links ~eps ~forbidden ~num_chunks t i;
    let c = t.chunks.(i) and start = t.starts.(i) in
    let held = (t.srcs.(i) * chunks) + c and got = (t.dsts.(i) * chunks) + c in
    if arrival.(held) > start +. eps then
      bad "NPU %d sends chunk %d at %g before holding it" t.srcs.(i) c start;
    arrival.(got) <- Float.min arrival.(got) t.finishes.(i)
  done;
  postcondition (fun d c ->
      if arrival.(cell d c) = infinity then
        bad "postcondition unmet: NPU %d never gets chunk %d" d c)

let result_of f = match f () with v -> Ok v | exception Bad msg -> Error msg
let iter_list l f = List.iter (fun (d, c) -> f d c) l

let validate_positioned topo ?(forbidden = []) ~precondition ~postcondition
    ~num_chunks ~chunk_size t =
  result_of (fun () ->
      check_positions topo ~forbidden ~precondition:(iter_list precondition)
        ~postcondition:(iter_list postcondition) ~num_chunks ~chunk_size t)

let check_spec topo spec ?order t =
  check_positions topo ~forbidden:[] ~precondition:(Spec.iter_precondition spec)
    ~postcondition:(Spec.iter_postcondition spec) ~num_chunks:(Spec.num_chunks spec)
    ~chunk_size:(Spec.chunk_size spec) ?order t

(* A combining pattern is its non-combining counterpart, mirrored: check the
   mirror in its own sorted order, through a permutation. *)
let check topo spec t =
  if Pattern.is_combining spec.Spec.pattern then begin
    let m = mirror t in
    check_spec (Topology.reverse topo) (Spec.reverse spec) ?order:(sort_order m) m
  end
  else check_spec topo spec t

let validate topo spec t =
  match spec.Spec.pattern with
  | Pattern.All_reduce -> Error "Schedule.validate: use validate_all_reduce for All-Reduce"
  | _ -> result_of (fun () -> check topo spec t)

let validate_all_reduce topo spec ~reduce_scatter ~all_gather =
  match spec.Spec.pattern with
  | Pattern.All_reduce -> (
    let phase pattern = Spec.with_pattern spec pattern in
    match validate topo (phase Pattern.Reduce_scatter) reduce_scatter with
    | Error e -> Error ("reduce-scatter phase: " ^ e)
    | Ok () ->
      let rs_end = reduce_scatter.makespan in
      if num_sends all_gather > 0 && all_gather.starts.(0) < rs_end -. eps_for rs_end then
        Error "all-gather phase starts before reduce-scatter completes"
      else begin
        (* The All-Gather phase is checked on its own clock, which starts at
           [rs_end], in the order its sends have on that clock. *)
        let local = translated all_gather (-.rs_end) in
        match
          result_of (fun () ->
              check_spec topo (phase Pattern.All_gather) ?order:(sort_order local) local)
        with
        | Error e -> Error ("all-gather phase: " ^ e)
        | Ok () -> Ok ()
      end)
  | _ -> Error "Schedule.validate_all_reduce: spec is not All-Reduce"

(* Reduction replay in positional form. The plan is split structurally:
   [combining] sends move *partial sums* (the source's accumulated
   contributions are spent and merged into the destination — exact,
   disjoint set union), [pull] sends replicate *fully reduced* values. The
   replay applies events in chronological order (a merge finishing at t can
   feed a send starting at t), so multi-epoch composites — kept healthy
   prefix plus per-epoch repair patches, all in one schedule pair — replay
   in a single pass. *)
module Reduction = struct
  module Iset = Set.Make (Int)

  (* absorbed.(v).(c): the ranks whose input the copy of chunk c at NPU v
     has accumulated; contributors.(c): every rank contributing to c. *)
  type state = { contributors : Iset.t array; absorbed : Iset.t array array }

  let run topo ~forbidden ~contributions ~num_chunks ~chunk_size ~combining ~pull =
    let eps = eps_for (Float.max combining.makespan pull.makespan) in
    let npus = Topology.num_npus topo in
    if num_chunks <= 0 then bad "num_chunks must be positive";
    let contributors = Array.make num_chunks Iset.empty in
    let absorbed = Array.make_matrix npus num_chunks Iset.empty in
    List.iter
      (fun (v, c) ->
        if v < 0 || v >= npus || c < 0 || c >= num_chunks then
          bad "contribution (%d, %d) out of range" v c;
        contributors.(c) <- Iset.add v contributors.(c);
        absorbed.(v).(c) <- Iset.add v absorbed.(v).(c))
      contributions;
    (* Physical legality of the union, merged by start time (a combining
       send first on equal starts): links exist and match endpoints,
       durations cover the α-β cost, one chunk per link at a time, no send
       overlaps a dead interval. *)
    let links = links_of topo ~chunk_size in
    let nc = num_sends combining and np = num_sends pull in
    let ic = ref 0 and ip = ref 0 in
    while !ic < nc || !ip < np do
      if !ic < nc && (!ip >= np || combining.starts.(!ic) <= pull.starts.(!ip)) then begin
        check_physical links ~eps ~forbidden ~num_chunks combining !ic;
        incr ic
      end
      else begin
        check_physical links ~eps ~forbidden ~num_chunks pull !ip;
        incr ip
      end
    done;
    (* Semantic replay. A combining send snapshots (and spends) the
       source's partial at its start and merges it into the destination at
       its finish; a pull send requires the source to hold the fully
       reduced value at its start and replicates it at its finish.
       Finishes sort before starts at equal times. *)
    let events =
      List.concat_map
        (fun s -> [ (s.start, 1, `Combine_start, s); (s.finish, 0, `Combine_finish, s) ])
        (sends combining)
      @ List.concat_map
          (fun s -> [ (s.start, 1, `Pull_start, s); (s.finish, 0, `Pull_finish, s) ])
          (sends pull)
    in
    let events =
      List.sort
        (fun (ta, pa, _, _) (tb, pb, _, _) ->
          let c = Float.compare ta tb in
          if c <> 0 then c else compare pa pb)
        events
    in
    (* In-flight partials keyed by the unique (edge, start) of the carrying
       send — each link carries one chunk at a time. *)
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
            bad "NPU %d absorbs the contribution of rank %d to chunk %d twice" s.dst
              (Iset.min_elt clash) c;
          absorbed.(s.dst).(c) <- Iset.union carried absorbed.(s.dst).(c)
        | `Pull_start ->
          if not (Iset.equal absorbed.(s.src).(c) contributors.(c)) then
            bad "NPU %d forwards chunk %d at %g holding a partial copy (%d of %d \
                 contributions)"
              s.src c s.start
              (Iset.cardinal absorbed.(s.src).(c))
              (Iset.cardinal contributors.(c))
        | `Pull_finish -> absorbed.(s.dst).(c) <- contributors.(c))
      events;
    { contributors; absorbed }

  let replay topo ~contributions ~num_chunks ~chunk_size ~combining ~pull =
    result_of (fun () ->
        run topo ~forbidden:[] ~contributions ~num_chunks ~chunk_size ~combining ~pull)

  let is_full st ~npu ~chunk =
    (not (Iset.is_empty st.contributors.(chunk)))
    && Iset.equal st.absorbed.(npu).(chunk) st.contributors.(chunk)

  (* The (npu, chunk) cells, in index order, that [f] maps to [Some]. *)
  let collect st f =
    let acc = ref [] in
    for v = Array.length st.absorbed - 1 downto 0 do
      for c = Array.length st.contributors - 1 downto 0 do
        Option.iter (fun x -> acc := x :: !acc) (f v c)
      done
    done;
    !acc

  let positions st =
    collect st (fun v c -> if is_full st ~npu:v ~chunk:c then Some (v, c) else None)

  let partials st =
    collect st (fun v c ->
        let set = st.absorbed.(v).(c) in
        if Iset.is_empty set || Iset.equal set st.contributors.(c) then None
        else Some (v, c, Iset.elements set))
end

let validate_reduction topo ?(forbidden = []) ~contributions ~postcondition
    ~num_chunks ~chunk_size ~combining ~pull () =
  result_of (fun () ->
      let st =
        Reduction.run topo ~forbidden ~contributions ~num_chunks ~chunk_size ~combining ~pull
      in
      let npus = Array.length st.absorbed in
      List.iter
        (fun (d, c) ->
          if d < 0 || d >= npus || c < 0 || c >= num_chunks then
            bad "postcondition (%d, %d) out of range" d c;
          let held = st.absorbed.(d).(c) and all = st.contributors.(c) in
          if not (Reduction.Iset.equal held all) then
            bad "postcondition unmet: NPU %d holds %d of %d contributions to chunk %d" d
              (Reduction.Iset.cardinal held) (Reduction.Iset.cardinal all) c)
        postcondition)

(* --- analyses ---------------------------------------------------------- *)

let link_bytes topo ~chunk_size t =
  let bytes = Array.make (Topology.num_links topo) 0. in
  Array.iter (fun e -> bytes.(e) <- bytes.(e) +. chunk_size) t.edges;
  bytes

let link_busy_seconds topo t =
  let busy = Array.make (Topology.num_links topo) 0. in
  Array.iteri
    (fun i e -> busy.(e) <- busy.(e) +. (t.finishes.(i) -. t.starts.(i)))
    t.edges;
  busy

let utilization_timeline topo ~bins t =
  Tacos_util.Timeline.utilization ~bins ~span:t.makespan
    ~capacity:(float_of_int (Topology.num_links topo))
    (fun f -> Array.iteri (fun i s -> f s t.finishes.(i)) t.starts)

let average_utilization topo t =
  if t.makespan <= 0. then 0.
  else begin
    let busy = link_busy_seconds topo t in
    let total = Array.fold_left ( +. ) 0. busy in
    total /. (float_of_int (Topology.num_links topo) *. t.makespan)
  end

let chunk_path t c = List.filter (fun s -> s.chunk = c) (sends t)

module Json = Tacos_util.Json

let of_json_value doc =
  match Option.bind (Json.member "sends" doc) Json.to_list with
  | None -> Error "Schedule.of_json: missing \"sends\" array"
  | Some entries -> (
    let n = List.length entries in
    let chunk = Array.make n 0 and edge = Array.make n 0 in
    let src = Array.make n 0 and dst = Array.make n 0 in
    let start = Array.create_float n and finish = Array.create_float n in
    let read i entry =
      let int key = Option.bind (Json.member key entry) Json.to_int in
      let num key = Option.bind (Json.member key entry) Json.to_float in
      match (int "chunk", int "src", int "dst", int "link", num "start", num "finish") with
      | Some c, Some s, Some d, Some e, Some st, Some fi ->
        chunk.(i) <- c;
        src.(i) <- s;
        dst.(i) <- d;
        edge.(i) <- e;
        start.(i) <- st;
        finish.(i) <- fi;
        true
      | _ -> false
    in
    let rec fill i = function [] -> true | e :: rest -> read i e && fill (i + 1) rest in
    if not (fill 0 entries) then Error "Schedule.of_json: malformed send entry"
    else
      (* [of_arrays] keeps tied sends in the order given, and replay
         depends on that order: hand them over in the document's order. *)
      match of_arrays ~chunk ~edge ~src ~dst ~start ~finish with
      | sched -> Ok sched
      | exception Invalid_argument e -> Error ("Schedule.of_json: " ^ e))

let of_json text =
  match Json.parse text with
  | Error e -> Error ("Schedule.of_json: " ^ e)
  | Ok doc -> of_json_value doc

let to_json_value ~spec t =
  let int x = Json.Number (float_of_int x) in
  let send i =
    Json.Object
      [
        ("chunk", int t.chunks.(i));
        ("src", int t.srcs.(i));
        ("dst", int t.dsts.(i));
        ("link", int t.edges.(i));
        ("start", Json.Number t.starts.(i));
        ("finish", Json.Number t.finishes.(i));
      ]
  in
  Json.Object
    [
      ("collective", Json.String (Pattern.name spec.Spec.pattern));
      ("npus", int spec.Spec.npus);
      ("chunks", int (Spec.num_chunks spec));
      ("chunk_size_bytes", Json.Number (Spec.chunk_size spec));
      ("makespan_seconds", Json.Number t.makespan);
      ("sends", Json.Array (List.init (num_sends t) send));
    ]

let to_json ?spec t =
  let n = num_sends t in
  let buf = Buffer.create (256 + (96 * n)) in
  Buffer.add_string buf "{\n";
  (match spec with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"collective\": \"%s\",\n  \"npus\": %d,\n  \"chunks\": %d,\n  \"chunk_size_bytes\": %.17g,\n"
         (Pattern.name s.Spec.pattern) s.Spec.npus (Spec.num_chunks s)
         (Spec.chunk_size s))
  | None -> ());
  (* Numbers are spelled as [Json.encode] spells them, each distinct time
     formatted once. *)
  let add_number = Json.number_writer buf in
  let add_int x = add_number (float_of_int x) in
  Buffer.add_string buf "  \"makespan_seconds\": ";
  add_number t.makespan;
  Buffer.add_string buf ",\n  \"sends\": [\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf "    {\"chunk\": ";
    add_int t.chunks.(i);
    Buffer.add_string buf ", \"src\": ";
    add_int t.srcs.(i);
    Buffer.add_string buf ", \"dst\": ";
    add_int t.dsts.(i);
    Buffer.add_string buf ", \"link\": ";
    add_int t.edges.(i);
    Buffer.add_string buf ", \"start\": ";
    add_number t.starts.(i);
    Buffer.add_string buf ", \"finish\": ";
    add_number t.finishes.(i);
    Buffer.add_string buf (if i = n - 1 then "}\n" else "},\n")
  done;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let pp_events ppf t =
  List.iter
    (fun s ->
      Format.fprintf ppf "[%10s - %10s] chunk %-6d  NPU %d -> NPU %d (link %d)@."
        (Tacos_util.Units.time_pp s.start)
        (Tacos_util.Units.time_pp s.finish)
        s.chunk s.src s.dst s.edge)
    (sends t)
