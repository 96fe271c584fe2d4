(** FPGA resource vectors: LUTs, flip-flops, BRAM36 blocks, DSP slices. *)

type t = { lut : int; ff : int; bram : int; dsp : int }

val zero : t
val add : t -> t -> t
val sum : t list -> t
val scale : int -> t -> t
val scale_f : float -> t -> t
(** Per-field multiply with rounding; used for optimization discounts. *)

val fits : t -> within:t -> bool

val fits_sum : t -> t -> within:t -> bool
(** [fits_sum a b ~within] is [fits (add a b) ~within], without building
    the sum. *)

val utilization : t -> device:t -> float * float * float * float
(** (lut, ff, bram, dsp) fractions of the device. *)

val describe_utilization : t -> device:t -> string
