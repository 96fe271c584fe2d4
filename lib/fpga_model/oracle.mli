(** The synthesis oracle: the stand-in for Vivado.

    Every query the real OverGen makes of the FPGA toolchain is answered
    here from analytical per-unit cost functions with deterministic
    pseudo-random variation: out-of-context component synthesis (used to
    train the ML resource model), full-design synthesis (resources,
    achievable clock, wall-clock synthesis time), and the per-category
    breakdown reported in the paper's Figure 16. *)

open Overgen_adg

val fu_cost : Op.t -> Dtype.t -> Res.t
(** One functional unit of the given operation/type. *)

val pe : Comp.pe -> fan_in:int -> fan_out:int -> Res.t
(** For tests: the tests check single components of {!accel} (ALU sharing, switch
    cost against radix). *)

val switch : width_bits:int -> fan_in:int -> fan_out:int -> Res.t
(** For tests: see {!pe}. *)

val engine : Comp.engine -> Res.t

val dispatcher : n_engines:int -> n_ports:int -> Res.t
val noc :
  ?topology:System.noc_topology ->
  tiles:int ->
  banks:int ->
  noc_bytes:int ->
  unit ->
  Res.t

val accel : Adg.t -> Res.t
(** One accelerator tile: all ADG components plus the stream dispatcher. *)

val accel_breakdown : Adg.t -> (string * Res.t) list
(** Per-category split of one tile using the paper's Figure 16 legend:
    "pe", "n/w", "vp", "spad", "dma" (all other stream engines and the
    dispatcher are grouped here, as in the paper). *)

val ooc : rng:Overgen_util.Rng.t -> Comp.t -> fan_in:int -> fan_out:int -> Res.t
(** Out-of-context synthesis sample: component cost with the pessimism of
    missing cross-module optimization plus synthesis noise.  This is the
    ground truth the MLP resource model is trained on. *)

(** Result of synthesizing a complete overlay SoC. *)
type full = {
  res : Res.t;
  freq_mhz : float;
  hours : float;  (** modeled Vivado wall-clock *)
  breakdown : (string * Res.t) list;
      (** tile categories plus "core" and "noc" (NoC + L2 + shell) *)
}

val synth_full : ?device:Device.t -> Sys_adg.t -> full
val system_overhead : ?device:Device.t -> System.t -> Res.t
(** Resources consumed outside the accelerator tiles: control cores, NoC,
    L2, shell.  What remains bounds the per-tile accelerator budget. *)

val synthesis_hours : device:Device.t -> Res.t -> float
