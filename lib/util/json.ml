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
        (* Preserved verbatim; sufficient for our own files. *)
        Buffer.add_string buf "\\u";
        advance c;
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

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* An integral number below 1e15 is an exact int, which [string_of_int]
   spells as [%.0f] would, without [Printf]; only -0. needs its sign. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf
      (if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f))
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number f -> add_number buf f
  | String s -> add_escaped buf s
  | Array elems ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        add_value buf v)
      elems;
    Buffer.add_char buf ']'
  | Object fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_escaped buf k;
        Buffer.add_string buf ": ";
        add_value buf v)
      fields;
    Buffer.add_char buf '}'

let encode v =
  let buf = Buffer.create 256 in
  add_value buf v;
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
