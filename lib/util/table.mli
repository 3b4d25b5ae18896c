(** ASCII table rendering for the benchmark harness.

    The benches print each paper table/figure as a plain-text table; this
    module keeps column alignment consistent everywhere. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a table with a header rule, the first
    column aligned left and the others right. Rows shorter than the header
    are padded with empty cells. Outside this module only tests
    call it: test_util's "table". *)

val print : header:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val cell_float : ?decimals:int -> float -> string
(** Fixed-point cell, default 2 decimals. *)

val cell_percent : float -> string
(** [cell_percent 0.9084] is ["90.84%"]. *)
