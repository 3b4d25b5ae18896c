(* What a workload is, what one timed run of it hands back, and the closed
   and open loops that drive its ops. *)

type limit =
  | Seconds of float  (** run ops until this much wall time has passed *)
  | Ops of int  (** run exactly the first n ops of the op list *)

type op = {
  cls : string;  (** the op class: set_time_s sums each class's median *)
  start : float;  (** wall time the op started, to find the machine's speed then *)
  service_ms : float;  (** process CPU time inside the calls into the program *)
  wall_ms : float;  (** wall time inside the same calls *)
  latency_ms : float;  (** service time, or wall time from the due time (open loop) *)
}

type outcome = {
  ops : op list;  (** in completion order *)
  failures : string list;  (** one line per op whose output failed a check *)
  window_s : float;  (** wall time from the first op to the last completion *)
  open_loop : bool;
  collective_us : float list;  (** collective times the run's outputs report *)
  late_ms : float list;  (** open loop: how late the generator issued each request *)
  backlog : int;  (** open loop: requests started after the last one was due *)
  extras : (string * float) list;  (** layer counters read from the program *)
  order : string;  (** digest of the generated op order *)
  peak_heap_mb : float;  (** the heap's high-water mark after [heap_ops] ops *)
}

let empty =
  {
    ops = [];
    failures = [];
    window_s = 0.;
    open_loop = false;
    collective_us = [];
    late_ms = [];
    backlog = 0;
    extras = [];
    order = "";
    peak_heap_mb = 0.;
  }

type instance = {
  run : limit -> outcome;  (** one timed run over the op list, from its start *)
  close : unit -> unit;
}

type t = {
  name : string;
  setup : seed:int -> quick:bool -> horizon:limit -> instance;
      (** build the inputs and warm up; [horizon] bounds the ops any run
          of the instance will need *)
  quick_ops : int;  (** the ops of one run in the quick smoke mode *)
}

let now = Unix.gettimeofday

(* Service times are the process's CPU time, which does not count time
   the process spent descheduled. *)
let cpu = Calib.cpu

(* By default the heap is read after this many timed ops (or after the
   last, if fewer), so a workload whose memory grows with the requests it
   has served reports the same point whether the machine ran fast or slow. *)
let heap_ops = 200

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Called before op [i]: the heap reading once [after] ops have run. *)
let heap_checkpoint ?(after = heap_ops) i heap = if i = after then top_heap_mb () else heap

(* One op of a closed loop: its class (also the kind of its root span),
   the calls it makes into the program, and the check of their output,
   which runs outside the timed interval. *)
type 'a step = { cls : string; call : unit -> 'a; check : 'a -> (unit, string) result }

(* A closed loop with one client: the next op starts when the previous one
   completed. With [Seconds], the time limit is only tested every [granule]
   ops, so a run covers whole passes over a config set. A machine-speed
   sample and [settle] run before each op, outside its timed interval, and
   one more sample after the last. The heap is read after [heap_after]
   ops. *)
let closed_loop ?(granule = 1) ?(settle = ignore) ?(heap_after = heap_ops) ~limit ~available
    step =
  let t_start = now () in
  let rec go i ops failures heap =
    let heap = heap_checkpoint ~after:heap_after i heap in
    let more =
      i < available
      &&
      match limit with
      | Ops n -> i < n
      | Seconds s -> i mod granule <> 0 || now () -. t_start < s
    in
    if not more then begin
      let heap = if i < heap_after then top_heap_mb () else heap in
      let window = now () -. t_start in
      Calib.tick ();
      (List.rev ops, List.rev failures, window, heap)
    end
    else begin
      let st = step i in
      Calib.tick ();
      settle ();
      let c0 = cpu () and t0 = now () in
      let r = try Ok (Span.op ~kind:st.cls st.call) with e -> Error (Printexc.to_string e) in
      let wall_ms = (now () -. t0) *. 1e3 and ms = (cpu () -. c0) *. 1e3 in
      let failures =
        match Result.bind r st.check with
        | Ok () -> failures
        | Error msg -> Printf.sprintf "op %d (%s): %s" i st.cls msg :: failures
      in
      go (i + 1)
        ({ cls = st.cls; start = t0; service_ms = ms; wall_ms; latency_ms = ms } :: ops)
        failures heap
    end
  in
  go 0 [] [] 0.

let digest_order names = Digest.to_hex (Digest.string (String.concat "\n" names))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Every file the benchmark writes lives under this directory of the
   working directory. *)
let out_dir = "_perf"

let scratch name =
  let dir =
    Filename.concat out_dir (Printf.sprintf "tmp-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  mkdir_p dir;
  dir
