type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ?aligns ~header rows =
  let ncols = List.length header in
  let normalize row =
    let row = if List.length row > ncols then List.filteri (fun i _ -> i < ncols) row else row in
    row @ List.init (ncols - List.length row) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    match aligns with
    | Some a when List.length a = ncols -> a
    | _ -> List.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths =
    List.init ncols (fun i ->
        let col_width row = String.length (List.nth row i) in
        List.fold_left (fun acc row -> max acc (col_width row)) (col_width header) rows)
  in
  let render_row row =
    let cells = List.mapi (fun i cell -> pad (List.nth aligns i) (List.nth widths i) cell) row in
    String.concat "  " cells
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let body = List.map render_row rows in
  String.concat "\n" ((render_row header :: rule :: body) @ [ "" ])

let print ?aligns ~header rows = print_string (render ?aligns ~header rows)
let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let cell_percent v = Printf.sprintf "%.2f%%" (100. *. v)
