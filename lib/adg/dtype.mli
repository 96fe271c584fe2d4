(** Data types supported by generated overlays: 8..64-bit integers and
    single/double precision floats (paper Section III-B). *)

type t = I8 | I16 | I32 | I64 | F32 | F64

val bits : t -> int
val bytes : t -> int
val is_float : t -> bool
val to_string : t -> string
val of_string : string -> t option
val all : t list

val fu_latency : t -> arith:[ `Simple | `Mul | `Div | `Sqrt ] -> int
(** Pipeline latency in cycles of a functional unit of the given class on
    this datatype, matching typical FPGA IP latencies (DSP-mapped floating
    point is deeply pipelined; integer adds are single-cycle). *)
