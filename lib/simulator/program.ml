(* Namespaces of the substrate libraries. *)
open Tacos_collective

type transfer = {
  id : int;
  tag : string;
  src : int;
  dst : int;
  size : float;
  deps : int list;
}

type t = { transfers : transfer array }
type builder = { mutable rev : transfer list; mutable count : int }

let builder () = { rev = []; count = 0 }

(* A NaN size, or an infinite one on a link with β = 0, makes the replay's
   holds and event times NaN, which no event order can sort. *)
let[@inline] valid_size (size : float) = size >= 0. && size < infinity

let add b ?(tag = "") ?(deps = []) ~src ~dst ~size () =
  if not (valid_size size) then
    invalid_arg "Program.add: size must be finite and non-negative";
  List.iter
    (fun d ->
      if d < 0 || d >= b.count then invalid_arg "Program.add: dangling dependency")
    deps;
  let id = b.count in
  b.rev <- { id; tag; src; dst; size; deps } :: b.rev;
  b.count <- b.count + 1;
  id

let barrier b deps npu = [ add b ~tag:"barrier" ~deps ~src:npu ~dst:npu ~size:0. () ]
let build b = { transfers = Array.of_list (List.rev b.rev) }
let transfers t = t.transfers
let num_transfers t = Array.length t.transfers

let import rows =
  let n = Array.length rows in
  {
    transfers =
      Array.mapi
        (fun id (tag, src, dst, size, deps) ->
          if not (valid_size size) then
            invalid_arg "Program.import: size must be finite and non-negative";
          List.iter
            (fun d ->
              if d < 0 || d >= n then
                invalid_arg "Program.import: dependency names no transfer")
            deps;
          { id; tag; src; dst; size; deps })
        rows;
  }

let total_bytes t =
  let sum = ref 0. in
  for i = 0 to Array.length t.transfers - 1 do
    sum := !sum +. t.transfers.(i).size
  done;
  !sum

let rec forward_dep id = function
  | [] -> None
  | d :: rest -> if d >= id then Some (id, d) else forward_dep id rest

let first_forward_dep t =
  let n = Array.length t.transfers in
  let rec scan i =
    if i = n then None
    else
      let tr = t.transfers.(i) in
      match forward_dep tr.id tr.deps with None -> scan (i + 1) | found -> found
  in
  scan 0

let validate_acyclic t =
  (* deps always point backwards by construction of [add], so the graph is
     acyclic unless it was [import]ed; verify explicitly either way. *)
  match first_forward_dep t with
  | None -> Ok ()
  | Some (id, dep) ->
    Error
      (Printf.sprintf "transfer %d depends on transfer %d, which is not earlier"
         id dep)

let of_schedule ?tag_of ~chunk_size (sched : Schedule.t) =
  let n = Schedule.num_sends sched in
  let src = sched.srcs and dst = sched.dsts and chunk = sched.chunks in
  if n > 0 && not (valid_size chunk_size) then
    invalid_arg "Program.of_schedule: chunk size must be finite and non-negative";
  let nodes = ref 0 and chunks = ref 0 in
  for i = 0 to n - 1 do
    if src.(i) < 0 || dst.(i) < 0 || chunk.(i) < 0 then
      invalid_arg "Program.of_schedule: negative NPU or chunk id";
    nodes := max !nodes (max src.(i) dst.(i) + 1);
    chunks := max !chunks (chunk.(i) + 1)
  done;
  let chunks = !chunks in
  (* Sends are already sorted by start time, so every delivery of a chunk to
     a node appears before any send that forwards it. A send depends on all
     earlier arrivals of its chunk at its source: one arrival for gather-side
     phases, several for the time-mirrored reduction phases (where partial
     contributions converge before the combined value moves on).
     [delivered.(node * chunks + chunk)] holds those arrivals, newest
     first. *)
  let delivered = Array.make (!nodes * chunks) [] in
  let names = Array.make chunks "" in
  let tag i =
    match tag_of with
    | Some f -> f (Schedule.get sched i)
    | None ->
      let c = chunk.(i) in
      if names.(c) = "" then names.(c) <- Printf.sprintf "chunk%d" c;
      names.(c)
  in
  {
    transfers =
      Array.init n (fun id ->
          let deps = delivered.((src.(id) * chunks) + chunk.(id)) in
          let at_dst = (dst.(id) * chunks) + chunk.(id) in
          delivered.(at_dst) <- id :: delivered.(at_dst);
          { id; tag = tag id; src = src.(id); dst = dst.(id); size = chunk_size; deps });
  }
