type t = {
  pattern : Pattern.t;
  npus : int;
  chunks_per_npu : int;
  buffer_size : float;
}

let check_root npus = function
  | Pattern.Broadcast r | Pattern.Reduce r | Pattern.Gather r | Pattern.Scatter r ->
    if r < 0 || r >= npus then invalid_arg "Spec.make: root out of range"
  | Pattern.All_gather | Pattern.Reduce_scatter | Pattern.All_reduce
  | Pattern.All_to_all ->
    ()

let make ?(chunks_per_npu = 1) ?(buffer_size = 1.0) ~pattern ~npus () =
  if npus <= 0 then invalid_arg "Spec.make: npus must be positive";
  if chunks_per_npu <= 0 then invalid_arg "Spec.make: chunks_per_npu must be positive";
  if not (buffer_size > 0. && Float.is_finite buffer_size) then
    invalid_arg "Spec.make: buffer_size must be positive and finite";
  check_root npus pattern;
  { pattern; npus; chunks_per_npu; buffer_size }

let rooted t =
  match t.pattern with
  | Pattern.Broadcast r | Pattern.Reduce r -> Some r
  | Pattern.Gather _ | Pattern.Scatter _ | Pattern.All_gather | Pattern.Reduce_scatter
  | Pattern.All_reduce | Pattern.All_to_all ->
    None

let num_chunks t =
  match t.pattern with
  | Pattern.Broadcast _ | Pattern.Reduce _ -> t.chunks_per_npu
  | Pattern.All_gather | Pattern.Reduce_scatter | Pattern.All_reduce | Pattern.Gather _
  | Pattern.Scatter _ ->
    t.npus * t.chunks_per_npu
  | Pattern.All_to_all ->
    (* One chunk group per ordered (src, dst) pair, diagonal included so the
       indexing stays rectangular (diagonal chunks are trivially satisfied). *)
    t.npus * t.npus * t.chunks_per_npu

let chunk_size t = t.buffer_size /. float_of_int (num_chunks t)

let owner t c =
  if c < 0 || c >= num_chunks t then invalid_arg "Spec.owner: chunk out of range";
  match rooted t with
  | Some r -> r
  | None -> (
    match t.pattern with
    | Pattern.All_to_all -> c / t.chunks_per_npu / t.npus
    | _ -> c / t.chunks_per_npu)

(* All-to-All chunk (src, dst, slot) <-> id helpers. *)
let a2a_chunk t ~src ~dst slot = (((src * t.npus) + dst) * t.chunks_per_npu) + slot
let a2a_dest t c = c / t.chunks_per_npu mod t.npus

(* Each condition is enumerated in one fixed order: by NPU, then chunk, for
   "everywhere"; by chunk for the anchored and rooted ones. The list forms
   below and the validator's walk over the iterators share that order, so
   both report the same first unmet pair. *)
let iter_anchored t f =
  for c = 0 to num_chunks t - 1 do
    f (owner t c) c
  done

let iter_everywhere t f =
  let k = num_chunks t in
  for d = 0 to t.npus - 1 do
    for c = 0 to k - 1 do
      f d c
    done
  done

let iter_at_root t r f =
  for c = 0 to num_chunks t - 1 do
    f r c
  done

let iter_precondition t f =
  match t.pattern with
  | Pattern.All_gather | Pattern.Gather _ | Pattern.All_to_all -> iter_anchored t f
  | Pattern.Reduce_scatter | Pattern.Reduce _ | Pattern.All_reduce -> iter_everywhere t f
  | Pattern.Broadcast r | Pattern.Scatter r -> iter_at_root t r f

let iter_postcondition t f =
  match t.pattern with
  | Pattern.All_gather | Pattern.Broadcast _ | Pattern.All_reduce -> iter_everywhere t f
  | Pattern.Reduce_scatter | Pattern.Scatter _ -> iter_anchored t f
  | Pattern.Reduce r | Pattern.Gather r -> iter_at_root t r f
  | Pattern.All_to_all ->
    for c = 0 to num_chunks t - 1 do
      f (a2a_dest t c) c
    done

let to_list iter t =
  let acc = ref [] in
  iter t (fun d c -> acc := (d, c) :: !acc);
  List.rev !acc

let precondition t = to_list iter_precondition t
let postcondition t = to_list iter_postcondition t

let with_pattern t pattern =
  check_root t.npus pattern;
  { t with pattern }

let reverse t =
  match Pattern.counterpart t.pattern with
  | Some p -> { t with pattern = p }
  | None -> invalid_arg "Spec.reverse: All-Reduce is composite; reverse its phases"

let pp ppf t =
  Format.fprintf ppf "%s over %d NPUs, %d chunk(s)/NPU, %s"
    (Pattern.name t.pattern) t.npus t.chunks_per_npu
    (Tacos_util.Units.bytes_pp t.buffer_size)
