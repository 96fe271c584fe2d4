(** Spatial schedules: the result of mapping one region's mDFG variant onto
    an ADG.

    A schedule binds every DFG instruction to a dedicated PE, every DFG
    vector port to a hardware port, every array node to a memory stream
    engine, and every DFG edge to a route through the switch network,
    with operand delays balanced within the PEs' delay-FIFO budget. *)

open Overgen_adg
open Overgen_mdfg

module Imap : Map.S with type key = int

type route = { hops : Adg.id list; delay : int }
(** [hops] includes the endpoints; [delay] is the extra per-operand
    delay-FIFO setting applied at the consumer. *)

type t = {
  variant : Compile.variant;
  inst_pe : Adg.id Imap.t;          (** DFG instruction -> PE *)
  port_map : Adg.id Imap.t;         (** DFG vector port -> hardware port *)
  array_engine : (string * Adg.id) list;
  rec_streams : (int * Adg.id) list;
      (** streams riding a recurrence engine instead of memory *)
  reg_streams : (int * Adg.id) list;
      (** scalar-collection streams on the register engine *)
  routes : ((int * int) * route) list;  (** DFG edge (src,dst) -> route *)
  max_link_share : int;
      (** worst-case number of distinct values time-multiplexed over one
          network link; lower-bounds the initiation interval *)
  skew_penalty : int;
      (** throughput loss from operand-arrival skew beyond the delay-FIFO
          budget: unbalanced pipelines bubble (paper Section V-B) *)
  ii : int;                         (** initiation interval, cycles/firing *)
}

val mem_ops : t -> int
(** Memory operations (stream lanes) per firing, counted into IPC as the
    paper does. *)

val ipc : t -> float
(** Estimated single-tile IPC of this schedule before memory bottlenecks:
    (instructions + memory ops) / II. *)

val engine_of_stream : t -> Stream.t -> Adg.id option
(** The engine serving a stream under this schedule: its recurrence/register
    engine if riding one, otherwise the engine its array is mapped to. *)

val engine_id : t -> Stream.t -> Adg.id
(** {!engine_of_stream} without the option: -1 for none. *)

val is_rec : t -> Stream.t -> bool

val compute_ii : ?comp:(Adg.id -> Comp.t option) -> Sys_adg.t -> t -> int
(** Initiation interval implied by port widths, engine bandwidths, and
    recurrence distances on the given hardware.  [?comp] overrides the
    component lookup with a faster (e.g. array-backed) one; it must agree
    with [Adg.comp sys.adg]. *)

(** {2 Legality rules}

    Each is defined once: {!validate} checks them all, and the scheduler
    filters candidates and re-checks bindings with them. *)

val pe_fits : Comp.pe -> op:Op.t -> dtype:Dtype.t -> bool
(** The PE supports [op] at [dtype] and is at least as wide. *)

val port_takes : Comp.port -> Stream.t -> bool
(** The port passes one element of the stream per cycle, and has stream
    state if the stream is stationary. *)

val port_carries : Compile.variant -> int -> Comp.port -> bool
(** [port_carries v dfg_port p]: {!port_takes} for all of DFG port
    [dfg_port]'s streams at once. *)

val engine_serves : Comp.engine -> Stream.t -> bool
(** A DMA or spad engine supports the stream's indirection and
    dimensionality; other kinds serve any stream. *)

val spad_holds : Comp.engine -> bytes:int -> bool
(** [bytes] fit in the engine's capacity. *)

val validate :
  ?comp:(Adg.id -> Comp.t option) ->
  ?mem_edge:(Adg.id -> Adg.id -> bool) ->
  t ->
  Sys_adg.t ->
  (unit, string) result
(** Check the schedule is still legal on the given (possibly mutated)
    hardware: all nodes exist with sufficient capability, every route
    runs intact from its producer's placement to its consumer's, delays
    within FIFO budget.  [?comp] / [?mem_edge] override the
    graph lookups with faster ones; they must agree with the graph. *)
