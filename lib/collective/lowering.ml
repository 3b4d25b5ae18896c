type op =
  | Send of { chunk : int; peer : int; link : int; start : float; finish : float }
  | Recv of { chunk : int; peer : int; link : int; start : float; finish : float }

let time_of = function Send { start; _ } | Recv { start; _ } -> start

let npu_programs ~npus (sched : Schedule.t) =
  if npus <= 0 then invalid_arg "Lowering.npu_programs: npus must be positive";
  let programs = Array.make npus [] in
  List.iter
    (fun (s : Schedule.send) ->
      if s.src >= npus || s.dst >= npus then
        invalid_arg "Lowering.npu_programs: send endpoint out of range";
      programs.(s.src) <-
        Send { chunk = s.chunk; peer = s.dst; link = s.edge; start = s.start; finish = s.finish }
        :: programs.(s.src);
      programs.(s.dst) <-
        Recv { chunk = s.chunk; peer = s.src; link = s.edge; start = s.start; finish = s.finish }
        :: programs.(s.dst))
    (Schedule.sends sched);
  Array.map
    (fun ops -> List.stable_sort (fun a b -> compare (time_of a) (time_of b)) ops)
    programs

let pp_program ppf ops =
  List.iter
    (fun op ->
      match op with
      | Send { chunk; peer; link; start; _ } ->
        Format.fprintf ppf "[%10s] send chunk %-4d -> NPU %d (link %d)@."
          (Tacos_util.Units.time_pp start) chunk peer link
      | Recv { chunk; peer; link; finish; _ } ->
        Format.fprintf ppf "[%10s] recv chunk %-4d <- NPU %d (link %d)@."
          (Tacos_util.Units.time_pp finish) chunk peer link)
    ops
