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

let add b ?(tag = "") ?(deps = []) ~src ~dst ~size () =
  if size < 0. then invalid_arg "Program.add: negative size";
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
          if size < 0. then invalid_arg "Program.import: negative size";
          List.iter
            (fun d ->
              if d < 0 || d >= n then
                invalid_arg "Program.import: dependency names no transfer")
            deps;
          { id; tag; src; dst; size; deps })
        rows;
  }

let total_bytes t =
  Array.fold_left (fun acc tr -> acc +. tr.size) 0. t.transfers

let first_forward_dep t =
  let found = ref None in
  Array.iter
    (fun tr ->
      if !found = None then
        List.iter
          (fun d -> if d >= tr.id && !found = None then found := Some (tr.id, d))
          tr.deps)
    t.transfers;
  !found

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
  let sends = Array.of_list sched.Schedule.sends in
  if chunk_size < 0. && Array.length sends > 0 then invalid_arg "Program.add: negative size";
  let nodes = ref 0 and chunks = ref 0 in
  Array.iter
    (fun (s : Schedule.send) ->
      if s.src < 0 || s.dst < 0 || s.chunk < 0 then
        invalid_arg "Program.of_schedule: negative NPU or chunk id";
      nodes := max !nodes (max s.src s.dst + 1);
      chunks := max !chunks (s.chunk + 1))
    sends;
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
  let tag (s : Schedule.send) =
    match tag_of with
    | Some f -> f s
    | None ->
      if names.(s.chunk) = "" then names.(s.chunk) <- Printf.sprintf "chunk%d" s.chunk;
      names.(s.chunk)
  in
  {
    transfers =
      Array.init (Array.length sends) (fun id ->
          let s = sends.(id) in
          let deps = delivered.((s.src * chunks) + s.chunk) in
          let at_dst = (s.dst * chunks) + s.chunk in
          delivered.(at_dst) <- id :: delivered.(at_dst);
          { id; tag = tag s; src = s.src; dst = s.dst; size = chunk_size; deps });
  }
