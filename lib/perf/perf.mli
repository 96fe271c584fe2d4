(** The DSE's bottleneck performance model (paper Section V-C).

    Estimated IPC of an application on a sysADG is the per-tile compute
    bandwidth of its scheduled mDFGs, scaled by tile count, derated by the
    most-bottlenecked memory level: scratchpad, L2 (and its NoC links), or
    DRAM — each computed as production rate / consumption rate with the
    streams' reuse factors (Equations 1 and 2).

    The model is split in three.  A {!profile}, built once per (ADG,
    schedules), holds everything that does not depend on the system
    parameters: each region's single-tile IPC, II and firings, the bytes
    of every scratchpad stream grouped by engine (in stream order, with
    the engine's bandwidth), every DMA stream's bytes and stride waste,
    every scratchpad array's fill bytes and partitioning, the recurrence
    bytes, the working set, the DFG ramp-up, and the application's total
    work.  {!prepare} adds what depends on the tile count alone: each
    region's per-tile duration, scratchpad factor, L2 consumption per tile
    and in total, and cold DRAM consumption.  What is left for one
    {!System.t} is the NoC, L2 and DRAM factors and the sums over regions
    and applications.  Every step keeps the operation order of the
    per-stream formulas, so the results are bit-identical to them.  The
    nested system DSE profiles once per call, prepares once per tile
    count and scores each candidate system with {!prepared_objective};
    {!app} and {!objective} are that same path on one sysADG. *)

open Overgen_adg
open Overgen_scheduler

(** Per-region estimate. *)
type region_perf = {
  ipc_single : float;   (** (insts + memory ops) / II for one tile *)
  spad_factor : float;  (** production/consumption, clamped to <= 1 *)
  noc_factor : float;
  l2_factor : float;
  dram_factor : float;
  bottleneck : float;   (** min of the four factors *)
  est_ipc : float;      (** Equation 1: ipc_single * tiles * bottleneck *)
  cycles : float;       (** firings * II / (tiles * bottleneck) + ramp-up *)
}

type app_perf = {
  regions : region_perf list;
  total_cycles : float;
  app_ipc : float;      (** work-weighted aggregate IPC for the app *)
}

type profile
(** The system-independent part of one application's model. *)

val profile : Adg.t -> Schedule.t list -> profile
(** Profile an application's schedules (one per region) on an ADG. *)

val evaluate : System.t -> profile -> app_perf
(** The model of a profiled application under one system configuration.
    For tests: the model under one system configuration, which tests compare
    against the per-stream reference. *)

type prepared
(** A profiled application prepared for one tile count. *)

val prepare : int -> profile -> prepared
(** [prepare tiles p]: the terms of [p]'s model that depend only on the
    tile count. *)

val prepared_objective : System.t -> prepared array -> float
(** {!objective} of applications prepared for [sysp.tiles], computed
    without allocating a region record or a float per region. *)

val app : Sys_adg.t -> Schedule.t list -> app_perf

val objective : Sys_adg.t -> Schedule.t list list -> float
(** DSE objective over a workload set (one schedule list per application):
    the weighted geometric mean of the per-app estimated IPCs. *)

val line_bytes : int
(** Cache-line granularity used for stride-efficiency derating. *)

val stride_waste : Overgen_mdfg.Stream.t -> float
(** Line-bandwidth inflation factor of a stream: strided accesses fetch
    whole lines and use a fraction; indirect accesses pay a reorder tax. *)
