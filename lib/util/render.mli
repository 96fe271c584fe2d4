(** ASCII rendering of tables and simple charts for the benchmark harness.

    Every table and figure of the paper is regenerated as text; these helpers
    keep the output format uniform across experiments. *)

val table : headers:string list -> rows:string list list -> string
(** Render an aligned ASCII table.  Rows shorter than the header are padded
    with empty cells. *)

val bar_chart :
  title:string -> (string * float list) list -> series:string list -> string
(** [bar_chart ~title rows ~series] renders grouped horizontal bars, one group
    per row label, one bar per series value.  The bar length is proportional
    to log2 of the value (for speedup charts spanning 1/8x..16x); values are
    still printed exactly. *)

val line_chart :
  title:string -> xlabel:string -> ylabel:string ->
  (string * (float * float) list) list -> string
(** Render one or more (x, y) series as an ASCII scatter/line plot, used for
    the DSE convergence figure.  Each series gets a distinct glyph. *)

val float_cell : float -> string
(** Compact float formatting used in table cells (3 significant decimals). *)

val pct_cell : float -> string
(** Format a ratio as a percentage cell, e.g. [0.52] -> ["52.0%"]. *)
