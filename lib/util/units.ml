let gbps x = x *. 1e9

let with_unit value steps =
  (* steps: (threshold, divisor, suffix), largest first. *)
  let rec go = function
    | [] -> Printf.sprintf "%g" value
    | (threshold, divisor, suffix) :: rest ->
      if Float.abs value >= threshold then
        Printf.sprintf "%.4g %s" (value /. divisor) suffix
      else go rest
  in
  go steps

let bytes_pp v =
  with_unit v [ (1e9, 1e9, "GB"); (1e6, 1e6, "MB"); (1e3, 1e3, "KB"); (0., 1., "B") ]

let time_pp v =
  with_unit v
    [ (1., 1., "s"); (1e-3, 1e-3, "ms"); (1e-6, 1e-6, "us"); (0., 1e-9, "ns") ]

let bandwidth_pp v =
  with_unit v
    [ (1e9, 1e9, "GB/s"); (1e6, 1e6, "MB/s"); (0., 1e3, "KB/s") ]
