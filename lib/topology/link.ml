type t = { alpha : float; beta : float }

let make ~alpha ~beta =
  if not (Float.is_finite alpha && Float.is_finite beta) then
    invalid_arg "Link.make: non-finite cost";
  if alpha < 0. || beta < 0. then invalid_arg "Link.make: negative cost";
  { alpha; beta }

let of_bandwidth ?(alpha = 0.5e-6) bw =
  if not (bw > 0.) then invalid_arg "Link.of_bandwidth: nonpositive bandwidth";
  make ~alpha ~beta:(1. /. bw)

let default = of_bandwidth 50e9
let cost t size = t.alpha +. (t.beta *. size)
let bandwidth t = if t.beta = 0. then infinity else 1. /. t.beta
let scale_beta t k = make ~alpha:t.alpha ~beta:(t.beta *. k)
