type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Bad of string

(* Recursive-descent parser over a cursor into the input string. *)
type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word value =
  if
    c.pos + String.length word <= String.length c.input
    && String.sub c.input c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail c ("expected " ^ word)

(* The four hex digits at the cursor, as an int. *)
let hex4 c =
  if c.pos + 4 > String.length c.input then fail c "truncated \\u escape";
  let v = ref 0 in
  for k = 0 to 3 do
    let d =
      match c.input.[c.pos + k] with
      | '0' .. '9' as h -> Char.code h - Char.code '0'
      | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
      | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

(* The code point of a \u escape whose "\u" the cursor has passed. A
   surrogate pair is one code point; a lone surrogate is an error. *)
let code_point c =
  let u = hex4 c in
  if u < 0xD800 || u > 0xDFFF then u
  else if
    u <= 0xDBFF
    && c.pos + 2 <= String.length c.input
    && c.input.[c.pos] = '\\'
    && c.input.[c.pos + 1] = 'u'
  then begin
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo < 0xDC00 || lo > 0xDFFF then fail c "lone surrogate in \\u escape";
    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else fail c "lone surrogate in \\u escape"

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'; advance c; go ()
      | Some 't' -> Buffer.add_char buf '\t'; advance c; go ()
      | Some 'r' -> Buffer.add_char buf '\r'; advance c; go ()
      | Some 'b' -> Buffer.add_char buf '\b'; advance c; go ()
      | Some 'f' -> Buffer.add_char buf '\012'; advance c; go ()
      | Some ('"' | '\\' | '/' ) -> Buffer.add_char buf c.input.[c.pos]; advance c; go ()
      | Some 'u' ->
        advance c;
        Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point c));
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.input start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> fail c ("bad number " ^ s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Object []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, value) :: acc)
        | Some '}' ->
          advance c;
          Object (List.rev ((key, value) :: acc))
        | _ -> fail c "expected , or } in object"
      in
      fields []
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Array []
    end
    else begin
      let rec elements acc =
        let value = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (value :: acc)
        | Some ']' ->
          advance c;
          Array (List.rev (value :: acc))
        | _ -> fail c "expected , or ] in array"
      in
      elements []
    end
  | Some '"' ->
    advance c;
    String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

let parse input =
  let c = { input; pos = 0 } in
  match parse_value c with
  | value ->
    skip_ws c;
    if c.pos = String.length input then Ok value
    else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* --- emission ----------------------------------------------------------- *)

(* The first index at or after [i] of a byte that must be escaped, or the
   length of [s]. *)
let rec clean_until s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> clean_until s (i + 1)

(* Copies each run of bytes that needs no escaping whole. *)
let rec add_escaped_from buf s i =
  let j = clean_until s i in
  Buffer.add_substring buf s i (j - i);
  if j < String.length s then begin
    (match s.[j] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\b' -> Buffer.add_string buf "\\b"
    | '\012' -> Buffer.add_string buf "\\f"
    | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
    add_escaped_from buf s (j + 1)
  end

let add_escaped buf s =
  Buffer.add_char buf '"';
  add_escaped_from buf s 0;
  Buffer.add_char buf '"'

(* Floats keyed by their bits, so 0. and -0. stay apart. *)
module Ftbl = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Every number is spelled as [%.17g] spells it. A nonzero integral number
   of magnitude below 1e15 is an exact int, written digit by digit; any
   other number is formatted once per [memo], since a schedule repeats few
   distinct times many times over. Zero takes the memo too: [int_of_float]
   loses its sign, and [%.17g] writes [0] and [-0]. *)
let add_number memo buf f =
  if f <> 0. && Float.is_integer f && Float.abs f < 1e15 then begin
    let i = int_of_float f in
    if i < 0 then Buffer.add_char buf '-';
    add_digits buf (abs i)
  end
  else
    Buffer.add_string buf
      (match Ftbl.find memo f with
      | s -> s
      | exception Not_found ->
        let s = Printf.sprintf "%.17g" f in
        Ftbl.add memo f s;
        s)

let number_writer buf =
  let memo = Ftbl.create 16 in
  fun f -> add_number memo buf f

let rec add_value memo buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number f -> add_number memo buf f
  | String s -> add_escaped buf s
  | Array elems ->
    Buffer.add_char buf '[';
    add_elements memo buf "" elems;
    Buffer.add_char buf ']'
  | Object fields ->
    Buffer.add_char buf '{';
    add_fields memo buf "" fields;
    Buffer.add_char buf '}'

(* [sep] goes before the head, ", " before every later element. *)
and add_elements memo buf sep = function
  | [] -> ()
  | v :: rest ->
    Buffer.add_string buf sep;
    add_value memo buf v;
    add_elements memo buf ", " rest

and add_fields memo buf sep = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_string buf sep;
    add_escaped buf k;
    Buffer.add_string buf ": ";
    add_value memo buf v;
    add_fields memo buf ", " rest

let encode v =
  let buf = Buffer.create 256 in
  add_value (Ftbl.create 16) buf v;
  Buffer.contents buf

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None
