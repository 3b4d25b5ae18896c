(* Spans the benchmark records around each call it makes into the program.

   Each span keeps its layer, start, end, parent span and op id, plus the
   words the OCaml heap allocated across it. Spans stay in memory while a
   traced run executes and are written once, as Chrome trace-event JSON,
   when it ends. A layer's self time is its spans' duration minus the time
   their direct children cover. Recording is off unless [on] is set, and an
   off [with_span] is a plain call. *)

module Json = Tacos_util.Json

type t = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  layer : string;
  kind : string;
  t0 : float;
  t1 : float;
  alloc_words : float;
}

let on = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let op_id = ref 0

let reset () =
  recorded := [];
  open_ids := [];
  next_id := 0;
  op_id := 0

let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let with_span ?(kind = "") layer f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let a0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let alloc_words = allocated_words () -. a0 in
      open_ids := List.tl !open_ids;
      recorded :=
        { id; parent; op = !op_id; layer; kind; t0; t1; alloc_words } :: !recorded
    in
    Fun.protect ~finally:close f
  end

(* The root span of one op: its self time is the benchmark's own glue
   between the calls it makes into the program. *)
let op ~kind f =
  incr op_id;
  with_span ~kind "harness" f

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0

(* Per span id, the summed duration of its direct children. *)
let child_time spans =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent)))
    spans;
  tbl

type total = { calls : int; ms : float; self_ms : float; alloc_mwords : float }

let zero = { calls = 0; ms = 0.; self_ms = 0.; alloc_mwords = 0. }

(* Totals over the spans of [layer], optionally only those whose kind
   satisfies [kind]. *)
let total ?(kind = fun _ -> true) layer =
  let spans = spans () in
  let children = child_time spans in
  List.fold_left
    (fun acc s ->
      if s.layer <> layer || not (kind s.kind) then acc
      else
        let d = duration s in
        let inner = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
        {
          calls = acc.calls + 1;
          ms = acc.ms +. (d *. 1e3);
          self_ms = acc.self_ms +. ((d -. inner) *. 1e3);
          alloc_mwords = acc.alloc_mwords +. (s.alloc_words /. 1e6);
        })
    zero spans

let layers () = List.sort_uniq String.compare (List.map (fun s -> s.layer) (spans ()))

(* Chrome trace-event JSON: one process, one lane, a complete ("X") event
   per span, sorted by start so timestamps are monotone. *)
let chrome ~process () =
  let spans =
    List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) (spans ())
  in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let num f = Json.Number f and str s = Json.String s in
  let meta name args =
    Json.Object
      [
        ("ph", str "M"); ("name", str name); ("pid", num 1.); ("tid", num 1.);
        ("ts", num 0.); ("args", Json.Object args);
      ]
  in
  let event s =
    Json.Object
      [
        ("ph", str "X");
        ("name", str (if s.kind = "" then s.layer else s.layer ^ " " ^ s.kind));
        ("cat", str s.layer); ("pid", num 1.); ("tid", num 1.);
        ("ts", num ((s.t0 -. base) *. 1e6));
        ("dur", num (duration s *. 1e6));
        ( "args",
          Json.Object
            [
              ("op", num (float_of_int s.op)); ("span", num (float_of_int s.id));
              ("parent", num (float_of_int s.parent));
              ("alloc_words", num s.alloc_words);
            ] );
      ]
  in
  Json.Object
    [
      ( "traceEvents",
        Json.Array
          (meta "process_name" [ ("name", str process) ]
          :: meta "thread_name" [ ("name", str "benchmark") ]
          :: List.map event spans) );
      ("displayTimeUnit", str "ms");
    ]
