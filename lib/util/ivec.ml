type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 8 0; len = 0 }
let length t = t.len
let data t = t.data

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get: index out of range";
  t.data.(i)

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let swap_remove t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.swap_remove: index out of range";
  t.len <- t.len - 1;
  if i = t.len then -1
  else begin
    t.data.(i) <- t.data.(t.len);
    t.data.(i)
  end
