(* Namespaces of the substrate libraries. *)
open Tacos_collective

type part = { group : Group.t; chunks : int array; schedule : Schedule.t; offset : float }

let assemble parts =
  (* Each distinct (sub-schedule, offset) is shifted once, and every part
     that deduped to that sub-schedule reads the shifted copy. *)
  let shifted = ref [] in
  let run p =
    let bits = Int64.bits_of_float p.offset in
    match
      List.find_opt
        (fun (s, o, _) -> s == p.schedule && Int64.equal o bits)
        !shifted
    with
    | Some (_, _, r) -> r
    | None ->
      let r = Schedule.shift p.schedule p.offset in
      shifted := (p.schedule, bits, r) :: !shifted;
      r
  in
  Schedule.merge
    (List.map
       (fun p ->
         ( run p,
           Some
             {
               Schedule.npu_of = p.group.Group.members;
               link_of = p.group.Group.link_map;
               chunk_of = p.chunks;
             } ))
       parts)
