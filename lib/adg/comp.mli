(** Hardware components that may appear as ADG nodes.

    The overlay accelerator is a graph of processing elements, operand
    switches, synchronization ports, and stream engines (paper Section II-A
    and III-B).  Each component carries the parameters that the design-space
    explorer mutates and the FPGA resource model prices. *)

(** Processing element. *)
type pe = {
  caps : Op.Cap.t;      (** supported (operation, datatype) pairs *)
  width_bits : int;     (** datapath width; subword SIMD when wider than dtype *)
  delay_fifo : int;     (** max per-operand delay-FIFO depth, in cycles *)
  const_regs : int;     (** number of constant registers *)
  predication : bool;   (** control lookup table for predicated execution *)
}

(** Synchronization (vector) port between memory and compute. *)
type port = {
  width_bytes : int;    (** max ingest/egest rate, bytes per cycle *)
  fifo_depth : int;     (** buffering in vector-width entries *)
  padding : bool;       (** automatic padding of non-vector-width streams *)
  stated : bool;        (** carries stream-state metadata (dimension edges) *)
}

type engine_kind = Dma | Spad | Rec | Gen | Reg

(** Stream engine (memory access or value/data movement). *)
type engine = {
  kind : engine_kind;
  bandwidth : int;      (** bytes per cycle *)
  capacity : int;       (** bytes of local storage; only meaningful for Spad *)
  indirect : bool;      (** parallel indirect access (requires reorder hw) *)
  max_dims : int;       (** supported affine pattern dimensionality, 1..3 *)
}

type t =
  | Pe of pe
  | Switch of { width_bits : int }
  | In_port of port
  | Out_port of port
  | Engine of engine

val engine_kind_to_string : engine_kind -> string
val kind_name : t -> string
(** Short tag: "pe", "sw", "ip", "op", "dma", "spad", "rec", "gen", "reg". *)

val describe : t -> string
(** One-line human-readable description with key parameters. *)

val default_pe : Op.Cap.t -> pe
val default_port : width_bytes:int -> port
val default_engine : engine_kind -> engine

