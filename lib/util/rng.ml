(* The 64-bit state lives in 8 bytes, read and written unboxed: an [int64]
   record field would be a fresh box at every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let bits64 t = next t
let split t = of_state (next t)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* Power of two: masking the mixed state is exact and unbiased. *)
    Int64.to_int (Int64.logand (next t) (Int64.of_int (bound - 1)))
  else begin
    (* Rejection sampling: [v mod bound] over [0, max_int] over-represents
       the residues below [(max_int + 1) mod bound], which skews tie-break
       shuffles for non-power-of-two counts. Redraw whenever [v] falls in
       the final partial block [v - r + bound - 1 > max_int]. *)
    let v = ref (-1) in
    while !v < 0 || !v - (!v mod bound) > max_int - bound + 1 do
      v := Int64.to_int (Int64.logand (next t) (Int64.of_int max_int))
    done;
    !v mod bound
  end

let float t bound =
  (* 53 random bits scaled to [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty";
  a.(int t (Array.length a))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty"
  | [ x ] -> x
  | l -> List.nth l (int t (List.length l))

let shuffle_prefix t a len =
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_in_place t a = shuffle_prefix t a (Array.length a)

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle_in_place t a;
  Array.to_list a
