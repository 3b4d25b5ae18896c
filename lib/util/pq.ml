(* A binary min-heap over (float, int) keys in lexicographic order, each
   entry carrying an int, kept as parallel arrays so that the float keys
   stay unboxed and a sift moves no pointers (and so pays no write
   barrier). Every (key, tie) pair in a heap is distinct — the event
   queue's ties are insertion numbers, and Dijkstra pushes a node only at a
   strictly smaller distance — so any correct heap pops the same
   sequence. *)
type heap = {
  mutable keys : float array;
  mutable ties : int array;
  mutable ids : int array;
  mutable size : int;
}

let heap () = { keys = [||]; ties = [||]; ids = [||]; size = 0 }
let[@inline] before (k : float) (s : int) k' s' = k < k' || (k = k' && s < s')

(* Room for one more entry at index [h.size]. *)
let reserve h =
  if h.size = Array.length h.keys then begin
    let cap = max 16 (2 * h.size) in
    let keys = Array.make cap 0. and ties = Array.make cap 0 and ids = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.ties 0 ties 0 h.size;
    Array.blit h.ids 0 ids 0 h.size;
    h.keys <- keys;
    h.ties <- ties;
    h.ids <- ids
  end

let[@inline] place h i k s id =
  h.keys.(i) <- k;
  h.ties.(i) <- s;
  h.ids.(i) <- id

let[@inline] move h ~src ~dst = place h dst h.keys.(src) h.ties.(src) h.ids.(src)

let heap_push h k s id =
  reserve h;
  let i = ref h.size and rising = ref true in
  h.size <- h.size + 1;
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if before k s h.keys.(p) h.ties.(p) then begin
      move h ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  place h !i k s id

(* Drop the root; the caller has read it. The last entry sinks from the
   root through the hole, each level moving the lesser child up. *)
let heap_drop_min h =
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let k = h.keys.(n) and s = h.ties.(n) and id = h.ids.(n) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let c =
          if l + 1 < n && before h.keys.(l + 1) h.ties.(l + 1) h.keys.(l) h.ties.(l)
          then l + 1
          else l
        in
        if before h.keys.(c) h.ties.(c) k s then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    place h !i k s id
  end

(* The event queue. Pushes at the key last popped — the events a handler
   schedules for "now" — skip the heap: they go to [fifo], the entries
   [fifo_head, fifo.size) of a heap record used as a queue. Its keys are
   all equal and its insertion numbers increase, so it is itself sorted by
   (key, insertion), and [pop] takes the lesser of its head and the heap's
   root. *)
type t = {
  heap : heap;
  fifo : heap;
  mutable fifo_head : int;
  last : float array;  (** one cell, unboxed: the key of the last pop, nan before the first *)
  mutable next_seq : int;
}

let create () =
  { heap = heap (); fifo = heap (); fifo_head = 0; last = [| Float.nan |]; next_seq = 0 }

let fifo_len t = t.fifo.size - t.fifo_head
let size t = t.heap.size + fifo_len t
let is_empty t = size t = 0

let push t key v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let f = t.fifo in
  if key = t.last.(0) && (fifo_len t = 0 || key = f.keys.(t.fifo_head)) then begin
    if fifo_len t = 0 then begin
      f.size <- 0;
      t.fifo_head <- 0
    end
    else if f.size = Array.length f.keys && t.fifo_head > 0 then begin
      (* Full at the back with room at the front: slide down. *)
      let n = fifo_len t in
      Array.blit f.keys t.fifo_head f.keys 0 n;
      Array.blit f.ties t.fifo_head f.ties 0 n;
      Array.blit f.ids t.fifo_head f.ids 0 n;
      f.size <- n;
      t.fifo_head <- 0
    end;
    reserve f;
    place f f.size key seq v;
    f.size <- f.size + 1
  end
  else heap_push t.heap key seq v

(* Whether the next pop comes from the FIFO. *)
let fifo_first t =
  let f = t.fifo and h = t.heap and i = t.fifo_head in
  fifo_len t > 0 && (h.size = 0 || before f.keys.(i) f.ties.(i) h.keys.(0) h.ties.(0))

(* The key leaves through [key.(0)]: a float array cell is written
   unboxed, where a returned float would be boxed at the call. *)
let pop t key =
  if is_empty t then invalid_arg "Pq.pop: empty";
  let from_fifo = fifo_first t in
  let src = if from_fifo then t.fifo else t.heap in
  let i = if from_fifo then t.fifo_head else 0 in
  let k = src.keys.(i) and v = src.ids.(i) in
  if from_fifo then t.fifo_head <- i + 1 else heap_drop_min t.heap;
  t.last.(0) <- k;
  key.(0) <- k;
  v

module Pairs = struct
  type t = heap

  let create = heap
  let is_empty h = h.size = 0
  let push h key id = heap_push h key id id

  let min_key h =
    if h.size = 0 then invalid_arg "Pq.Pairs.min_key: empty";
    h.keys.(0)

  let pop h =
    if h.size = 0 then invalid_arg "Pq.Pairs.pop: empty";
    let id = h.ids.(0) in
    heap_drop_min h;
    id
end
