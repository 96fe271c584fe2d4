(** FPGA device descriptions.  The evaluation platform is the Xilinx VCU118
    board's XCVU9P part: three SLR dies connected by silicon interposers,
    whose crossing delay motivates the conservative pipelining of paper
    Section VI-D. *)

type t = {
  name : string;
  capacity : Res.t;
  base_clock_mhz : float;   (** achievable clock of a small, clean design *)
  usable_fraction : float;  (** routable fraction before congestion collapse *)
}

val xcvu9p : t
val u250 : t
(** Alveo U250 (XCU250): a larger 4-SLR part, for the model-portability
    extension (the paper: "this framework can more easily be ported to other
    FPGAs"). *)

val default : t
val usable : t -> Res.t
(** The capacity actually available to a design (leaving routing headroom
    and the shell/peripherals). *)
