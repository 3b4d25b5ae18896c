(* The machine's speed, read from a fixed reference kernel run between ops.

   On a machine shared with other tenants, the same ops can take half as
   long again in one minute as in another, and for a few seconds at a time
   within a run, in process CPU time as much as in wall time. Neither clock
   alone lets two runs be compared. A fixed kernel run in the same process
   slows down with the ops, so each op's time is multiplied by
   [nominal_ms] over the kernel's time around that op. The kernel is the
   benchmark's own code and calls nothing in the program, so a change to
   the program cannot move it.

   The kernel sums a 2 MB array of integers, which streams it through the
   caches the process shares with the other tenants. Timed against the
   synthesis ops over four minutes of a busy hour, the ops' 10-op
   medians moved by 18 % (standard deviation of the log), and by 5.5 %
   once divided by this kernel's time: they moved one for one with it.
   Kernels that fit a core's private caches (random reads of a 256 KB
   table, heap sorts) moved only two thirds as far as the ops (8.7 % left
   after dividing), and pointer chases through 8 and 64 MB tracked them
   worse still. The kernel's data lives outside the OCaml heap and it
   allocates nothing on it, so it never runs the garbage collector, whose
   cost would depend on the program's heap, and it does not show in
   [peak_heap_mb]. A sample runs the kernel once untimed, so that what the
   program left in the caches does not count, then once timed. *)

open Bigarray

(* The process's CPU time, user and system, in seconds. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The kernel's median CPU time over those four minutes on the reference
   machine (a 2-vCPU Xeon VM at 2.1 GHz); its fastest tenth took under
   0.23 ms and its slowest over 0.38 ms. A scaled timing reads in seconds
   of that machine at that median speed. *)
let nominal_ms = 0.28

let table : (int, int_elt, c_layout) Array1.t Lazy.t =
  lazy
    (let a = Array1.create int c_layout (2 * 1024 * 1024 / 8) in
     Array1.fill a 1;
     a)

let kernel () =
  let a = Lazy.force table in
  let s = ref 0 in
  for i = 0 to Array1.dim a - 1 do
    s := !s + Array1.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !s)

(* Every sample of this process: its wall time and the kernel's CPU ms,
   newest first. *)
let samples : (float * float) list ref = ref []

let sample () =
  kernel ();
  let c0 = cpu () in
  kernel ();
  let ms = (cpu () -. c0) *. 1e3 in
  samples := (Unix.gettimeofday (), ms) :: !samples;
  ms

let median l = Tacos_util.Stats.percentile 50. l

(* Between ops, outside their timed interval: a sample, unless one was
   taken less than [every] seconds ago. *)
let tick ?(every = 0.) () =
  match !samples with
  | (t, _) :: _ when Unix.gettimeofday () -. t < every -> ()
  | _ -> ignore (sample ())

(* The median of [n] samples taken now. *)
let burst n = median (List.init n (fun _ -> sample ()))

(* The kernel's median time over every sample so far, in ms. *)
let measured_ms () = match !samples with [] -> nominal_ms | l -> median (List.map snd l)

(* The factor that makes a time measured at wall time [t] read in seconds
   of the reference machine: [nominal_ms] over the median of the two
   samples before [t] and the two after, so that one stalled sample does
   not carry. Call it after the run, when the samples after its last op
   exist. *)
let scale_at () =
  let a = Array.of_list (List.rev !samples) in
  let n = Array.length a in
  fun t ->
    if n = 0 then 1.
    else
      (* The first sample after [t]. *)
      let rec first lo hi = if lo >= hi then lo else
          let mid = (lo + hi) / 2 in
          if fst a.(mid) > t then first lo mid else first (mid + 1) hi
      in
      let j = first 0 n in
      let near = List.filter_map (fun i -> if i >= 0 && i < n then Some (snd a.(i)) else None)
          [ j - 2; j - 1; j; j + 1 ] in
      nominal_ms /. median near
