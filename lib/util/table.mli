(** ASCII table rendering for the benchmark harness.

    The benches print each paper table/figure as a plain-text table; this
    module keeps column alignment consistent everywhere. *)

type align = Left | Right

val render : ?aligns:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out a table with a header rule. [aligns]
    defaults to left for the first column and right elsewhere. Rows shorter
    than the header are padded with empty cells. Outside this module only tests
    call it: test_util's "table". *)

val print : ?aligns:align list -> header:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val cell_float : ?decimals:int -> float -> string
(** Fixed-point cell, default 2 decimals. *)

val cell_percent : float -> string
(** [cell_percent 0.9084] is ["90.84%"]. *)
