(* Pins for deterministic outputs: floats compare by their bits and print
   as %.17g on a mismatch. *)
let exact =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.17g" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
