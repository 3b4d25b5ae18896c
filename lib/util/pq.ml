(* A binary min-heap over (float, int) keys in lexicographic order, each
   entry carrying an int, kept as parallel arrays so that the float keys
   stay unboxed and a sift moves no pointers (and so pays no write
   barrier). Every (key, tie) pair in a heap is distinct — the event
   queue's ties are the insertion numbers of its runs' first entries, and
   Dijkstra pushes a node only at a strictly smaller distance — so any
   correct heap pops the same sequence. *)
type heap = {
  mutable keys : float array;
  mutable ties : int array;
  mutable ids : int array;
  mutable size : int;
}

let heap () = { keys = [||]; ties = [||]; ids = [||]; size = 0 }

let[@inline] before (k : float) (s : int) (k' : float) (s' : int) =
  k < k' || (k = k' && s < s')

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

(* The event queue: a heap of runs. A run is a FIFO of entries whose keys
   are equal under [=]; each entry keeps its own key, so a pop writes back
   the popped entry's own sign of zero. [runs] holds one entry per pending
   run: its key, the insertion number of its first entry, and its oldest
   entry.

   A push joins a run only while the run is open. The open runs are the
   last [open_slots] opened, most recent first: opening one more closes
   the oldest, and a run that drains closes too. A closed run never takes
   another entry, so the runs of one key hold disjoint, ascending ranges of
   insertion numbers. The least run's oldest entry is then the least
   (key, insertion) entry, and a pop touches the heap only when it drains
   a run. Keys are grouped by [=], not by bits: after 0. opens run A and
   -0. opens run B, a later 0. grouped by bits would join A and pop ahead
   of the -0. pushed before it.

   Entries live in parallel arrays of slots; [entry_next] links each run from
   oldest to newest, and the free slots into a list. *)
let open_slots = 4

type t = {
  runs : heap;
  mutable count : int;
  mutable next_seq : int;
  mutable entry_keys : float array;
  mutable entry_vals : int array;
  mutable entry_next : int array;
      (** a live slot's successor in its run (-1 after the newest); a free
          slot's successor on the free list *)
  mutable free : int;  (** the first free slot, -1 when none *)
  mutable used : int;  (** no slot at or past [used] was ever handed out *)
  open_keys : float array;  (** the open runs' keys, most recently opened first *)
  open_tails : int array;  (** and their newest entries *)
  mutable num_open : int;
}

let create () =
  {
    runs = heap ();
    count = 0;
    next_seq = 0;
    entry_keys = [||];
    entry_vals = [||];
    entry_next = [||];
    free = -1;
    used = 0;
    open_keys = Array.make open_slots 0.;
    open_tails = Array.make open_slots 0;
    num_open = 0;
  }

let size t = t.count
let is_empty t = t.count = 0

(* A slot holding [key] and [v], the newest of no run yet. *)
let new_entry t (key : float) v =
  let e =
    if t.free >= 0 then begin
      let e = t.free in
      t.free <- t.entry_next.(e);
      e
    end
    else begin
      let e = t.used in
      if e = Array.length t.entry_keys then begin
        let cap = max 16 (2 * e) in
        let keys = Array.make cap 0. and vals = Array.make cap 0 and next = Array.make cap 0 in
        Array.blit t.entry_keys 0 keys 0 e;
        Array.blit t.entry_vals 0 vals 0 e;
        Array.blit t.entry_next 0 next 0 e;
        t.entry_keys <- keys;
        t.entry_vals <- vals;
        t.entry_next <- next
      end;
      t.used <- e + 1;
      e
    end
  in
  t.entry_keys.(e) <- key;
  t.entry_vals.(e) <- v;
  t.entry_next.(e) <- -1;
  e

(* The open slot whose run has key [key], or -1. *)
let find_open t (key : float) =
  let i = ref 0 in
  while !i < t.num_open && not (t.open_keys.(!i) = key) do
    incr i
  done;
  if !i < t.num_open then !i else -1

(* Open a run of [key] whose newest entry is [e]; when every slot is
   taken, the oldest run closes. *)
let open_run t (key : float) e =
  let n = min t.num_open (open_slots - 1) in
  for i = n downto 1 do
    t.open_keys.(i) <- t.open_keys.(i - 1);
    t.open_tails.(i) <- t.open_tails.(i - 1)
  done;
  t.open_keys.(0) <- key;
  t.open_tails.(0) <- e;
  t.num_open <- n + 1

(* Close the open run whose newest entry is [e], if there is one. *)
let close_run t e =
  let n = t.num_open in
  let i = ref 0 in
  while !i < n && t.open_tails.(!i) <> e do
    incr i
  done;
  if !i < n then begin
    for j = !i to n - 2 do
      t.open_keys.(j) <- t.open_keys.(j + 1);
      t.open_tails.(j) <- t.open_tails.(j + 1)
    done;
    t.num_open <- n - 1
  end

let push t key v =
  let e = new_entry t key v in
  let i = find_open t key in
  if i >= 0 then begin
    t.entry_next.(t.open_tails.(i)) <- e;
    t.open_tails.(i) <- e
  end
  else begin
    heap_push t.runs key t.next_seq e;
    open_run t key e
  end;
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1

(* The key leaves through [key.(0)]: a float array cell is written
   unboxed, where a returned float would be boxed at the call. *)
let pop t key =
  if t.count = 0 then invalid_arg "Pq.pop: empty";
  let h = t.runs in
  let e = h.ids.(0) in
  let after = t.entry_next.(e) in
  if after < 0 then begin
    heap_drop_min h;
    close_run t e
  end
  else h.ids.(0) <- after;
  key.(0) <- t.entry_keys.(e);
  let v = t.entry_vals.(e) in
  t.entry_next.(e) <- t.free;
  t.free <- e;
  t.count <- t.count - 1;
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
