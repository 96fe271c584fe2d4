(** Lowering schedules to the accelerator ISA.

    After spatial scheduling, an application becomes (1) a configuration
    bitstream for the computing substrate and (2) a sequence of stream
    commands the control core issues through the RoCC interface — stream
    register writes followed by instantiation, with barriers between
    dependent program regions (paper Section VI-B). *)

open Overgen_adg
open Overgen_scheduler

(** One elaborated stream command (the decoded stream-dispatch-queue entry). *)
type stream_cmd = {
  engine : Adg.id;
  port : Adg.id option;       (** destination/source hardware port *)
  write : bool;
  indirect : bool;
  rec_forward : bool;         (** recurrence-engine forwarding stream *)
  base_offset : int;          (** element offset of the array in its space *)
  dims : (int * int) list;    (** (stride, trip) per dimension, innermost first *)
  elem_bytes : int;
}

type region_program = {
  rname : string;
  config_writes : int;        (** stream-register-file writes to set up *)
  commands : stream_cmd list;
}

type program = {
  kernel : string;
  bitstream : Bitstream.t;
  regions : region_program list;
}

val assemble : Sys_adg.t -> Schedule.t list -> program
(** Lower an application's schedules to a binary-ready program. *)

val config_bitstream : Sys_adg.t -> Schedule.t list -> Bitstream.t
(** Just the spatial configuration: switch route selects, PE opcodes,
    constants and delay settings, port templates.
    For tests: the tests compare the configuration of two kernels without the rest
    of the program. *)

val disassemble : program -> string
