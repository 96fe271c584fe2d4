(** The three workload suites of the evaluation (paper Section VII). *)

type t = Dsp | Machsuite | Vision

val all : t list
val to_string : t -> string
val of_string : string -> t option
