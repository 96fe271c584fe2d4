(** A system-level ADG: the per-tile accelerator ADG plus the SoC parameters
    (paper: "sysADG").  All tiles are homogeneous instances of the same
    accelerator, each attached to a lightweight RISC-V-style control core. *)

type t = { adg : Adg.t; system : System.t }

val make : Adg.t -> System.t -> t
val with_system : t -> System.t -> t
val with_adg : t -> Adg.t -> t
val describe : t -> string

val config_bits : t -> int
(** Size of the configuration bitstream of one accelerator instance: switch
    route tables, PE opcode/constant slots, delay-FIFO settings, port
    configuration.  Determines reconfiguration time (Section VI-B).
    For tests: the tests check that the bitstream size grows with the design,
    which {!reconfigure_cycles} depends on. *)

val reconfigure_cycles : t -> int
(** Cycles to stream the configuration bitstream from the D-cache through the
    reconfiguration network, for all tiles reconfiguring in parallel. *)
