(* Namespaces of the substrate libraries. *)
open Tacos_collective
module Iset = Set.Make (Int)

(* Per-chunk reduction state, replayed from the prefix of a schedule that
   survived a fault. absorbed.(v).(c) is the set of contributing ranks whose
   input the copy of chunk c at NPU v has accumulated:

   - every contributor starts holding exactly its own contribution;
   - a *combining* send spends the source's set when it starts (the source
     promises not to re-send those contributions) and merges it into the
     destination when it finishes;
   - a *pull* send replicates a fully-reduced value: the destination holds
     every contribution once it finishes.

   Sends still in flight at the replay horizon are ignored entirely — repair
   cancels them, so their contributions stay at the source. The invariant
   maintained (for well-formed schedules, which the TACOS mirror construction
   produces) is that per chunk the non-empty absorbed sets partition the
   contributor set: repair can always either combine them or spread the full
   copy. *)

type t = {
  num_chunks : int;
  contributors : Iset.t array;  (* per chunk *)
  absorbed : Iset.t array array;  (* npu x chunk *)
}

let create ~num_npus ~num_chunks ~contributors =
  if num_npus <= 0 then invalid_arg "Reduction.create: num_npus must be positive";
  if num_chunks <= 0 then invalid_arg "Reduction.create: num_chunks must be positive";
  let contrib = Array.make num_chunks Iset.empty in
  let absorbed = Array.make_matrix num_npus num_chunks Iset.empty in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= num_npus then
        invalid_arg (Printf.sprintf "Reduction.create: contributor NPU %d" v);
      if c < 0 || c >= num_chunks then
        invalid_arg (Printf.sprintf "Reduction.create: contributor chunk %d" c);
      contrib.(c) <- Iset.add v contrib.(c);
      absorbed.(v).(c) <- Iset.add v absorbed.(v).(c))
    contributors;
  { num_chunks; contributors = contrib; absorbed }

type event_kind = Combine_start | Combine_finish | Pull_finish

(* Replay every send that finished by [at] (within the shared tolerance), in
   chronological order with finishes applied before starts at equal times —
   the same ordering [Schedule.validate_reduction] checks, so a valid prefix
   replays without ever splitting a contribution in two places. *)
let replay t ~combining ~pull ~at =
  let eps = Schedule.eps_for at in
  let kept sends = List.filter (fun (s : Schedule.send) -> s.Schedule.finish <= at +. eps) sends in
  let events =
    List.concat_map
      (fun (s : Schedule.send) ->
        [ (s.Schedule.start, 1, Combine_start, s); (s.Schedule.finish, 0, Combine_finish, s) ])
      (kept (Schedule.sends combining))
    @ List.map
        (fun (s : Schedule.send) -> (s.Schedule.finish, 0, Pull_finish, s))
        (kept (Schedule.sends pull))
  in
  let events =
    List.sort
      (fun (t1, p1, _, _) (t2, p2, _, _) ->
        let c = Float.compare t1 t2 in
        if c <> 0 then c else compare p1 p2)
      events
  in
  (* In-flight partials keyed by the unique (edge, start) of the carrying
     send — each link carries one chunk at a time. *)
  let in_flight = Hashtbl.create 16 in
  List.iter
    (fun (_, _, kind, (s : Schedule.send)) ->
      match kind with
      | Combine_start ->
        Hashtbl.replace in_flight (s.Schedule.edge, s.Schedule.start)
          t.absorbed.(s.Schedule.src).(s.Schedule.chunk);
        t.absorbed.(s.Schedule.src).(s.Schedule.chunk) <- Iset.empty
      | Combine_finish ->
        let key = (s.Schedule.edge, s.Schedule.start) in
        let carried =
          match Hashtbl.find_opt in_flight key with
          | Some set -> Hashtbl.remove in_flight key; set
          | None -> Iset.empty (* defensive: start not replayed *)
        in
        t.absorbed.(s.Schedule.dst).(s.Schedule.chunk) <-
          Iset.union carried t.absorbed.(s.Schedule.dst).(s.Schedule.chunk)
      | Pull_finish ->
        t.absorbed.(s.Schedule.dst).(s.Schedule.chunk) <-
          t.contributors.(s.Schedule.chunk))
    events

let is_full t ~npu ~chunk =
  (not (Iset.is_empty t.contributors.(chunk)))
  && Iset.equal t.absorbed.(npu).(chunk) t.contributors.(chunk)

(* Fully-reduced copies, in (npu, chunk) index order. *)
let positions t =
  let acc = ref [] in
  for v = Array.length t.absorbed - 1 downto 0 do
    for c = t.num_chunks - 1 downto 0 do
      if is_full t ~npu:v ~chunk:c then acc := (v, c) :: !acc
    done
  done;
  !acc

(* Strictly-partial non-empty accumulators, in (npu, chunk) index order. *)
let partials t =
  let acc = ref [] in
  for v = Array.length t.absorbed - 1 downto 0 do
    for c = t.num_chunks - 1 downto 0 do
      let set = t.absorbed.(v).(c) in
      if (not (Iset.is_empty set)) && not (Iset.equal set t.contributors.(c)) then
        acc := (v, c, Iset.elements set) :: !acc
    done
  done;
  !acc
