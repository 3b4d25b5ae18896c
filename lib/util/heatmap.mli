(** ASCII heat maps, used to regenerate the link-traffic maps of Fig. 1 and
    the link-utilization maps of Fig. 15(b).

    Values are normalized to the matrix maximum and rendered on a character
    ramp from cold to hot. Cells for absent links (no physical link between
    the pair) are rendered as ['#'] to match the paper's blacked-out cells. *)

val render :
  ?labels:string array -> (float option) array array -> string
(** [render m] renders a square (or rectangular) matrix. [m.(src).(dst)] is
    [None] when there is no link, [Some v] otherwise. [labels] annotates rows
    (defaults to indices). *)

val ramp_char : float -> char
(** [ramp_char v] maps a normalized value in \[0, 1\] to the ramp
    [" .:-=+*%@"] (0 maps to space, 1 to '@'). Outside this module only tests
    call it: test_util's "heatmap ramp". *)
