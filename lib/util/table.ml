(* The first column pads on the right (left-aligned), the others on the
   left (right-aligned). *)
let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else if left then s ^ String.make (width - n) ' '
  else String.make (width - n) ' ' ^ s

let render ~header rows =
  let ncols = List.length header in
  let normalize row =
    let row = if List.length row > ncols then List.filteri (fun i _ -> i < ncols) row else row in
    row @ List.init (ncols - List.length row) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.init ncols (fun i ->
        let col_width row = String.length (List.nth row i) in
        List.fold_left (fun acc row -> max acc (col_width row)) (col_width header) rows)
  in
  let render_row row =
    let cells = List.mapi (fun i cell -> pad ~left:(i = 0) (List.nth widths i) cell) row in
    String.concat "  " cells
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let body = List.map render_row rows in
  String.concat "\n" ((render_row header :: rule :: body) @ [ "" ])

let print ~header rows = print_string (render ~header rows)
let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let cell_percent v = Printf.sprintf "%.2f%%" (100. *. v)
