(** Cycle-level simulator of a generated overlay SoC (paper Section VI).

    Executes an application's schedules on a sysADG cycle by cycle: the
    control core configures and dispatches streams through the stream
    dispatcher (2-cycle minimum dispatch, re-dispatch for loop nests deeper
    than the engines' 3D patterns); stream engines move data between port
    FIFOs and the memory system at their bandwidth, with the stream-table
    one-hot bypass halving single-stream issue when disabled (Figure 11);
    the spatial fabric fires one DFG instance per II when all input ports
    have data and output ports have space; DMA traffic crosses the per-tile
    NoC link into the banked shared L2, and misses go to DRAM, both with
    latency and bandwidth contention across tiles.

    The tiles of one share run the same schedule from the same state and
    see the same L2/DRAM contention, so they stay identical: one
    representative tile is stepped per share and its shared-path demand is
    counted once per tile it stands for, in the order a tile-by-tile sum
    would take, so cycle counts and byte totals are exactly those of
    stepping every tile.  Responses in flight wait in a per-stream ring
    sized to the config's largest latency; the cycle loop allocates
    nothing.  {!run} is {!run_multi} with one tenant on every tile.

    Data values are not computed — the simulator tracks byte flows and
    occupancy, which is what determines cycles on this class of machine;
    functional correctness is the compiler's and scheduler's business
    (validated by their own test suites). *)

open Overgen_adg
open Overgen_scheduler

type config = {
  one_hot_bypass : bool;  (** stream-table bypass of Figure 11 *)
  l2_hit_latency : int;
  dram_latency : int;
  spad_latency : int;
  mshr_per_bank : int;    (** outstanding-miss limit per L2 bank *)
  rob_bytes : float;      (** per-stream run-ahead allowed by the engine's
                              reorder buffer; hides memory latency *)
  max_cycles : int;       (** safety stop: the most cycles one region may take *)
}

val default_config : config

type region_result = {
  cycles : int;
  firings : int;          (** per tile *)
}

type t = {
  total_cycles : int;
  per_region : region_result list;
  l2_bytes : float;       (** bytes served by the L2 across the run *)
  dram_bytes : float;
  sim_ipc : float;        (** measured whole-SoC IPC *)
}

val run : ?config:config -> Sys_adg.t -> Schedule.t list -> t
(** Simulate all regions of one application back to back.
    @raise Failure if a schedule deadlocks or exceeds [max_cycles]. *)

val wall_time_ms : freq_mhz:float -> t -> float
(** Convert simulated cycles to milliseconds at the synthesized clock. *)

(** {2 Multi-tenant execution}

    The paper's conclusion names heterogeneous workload mixes on one fabric
    as an open direction; this is the static-partitioning version: each
    tenant application owns a disjoint group of tiles, all groups contend
    for the shared NoC/L2/DRAM concurrently. *)

type tenant_result = {
  t_kernel : string;
  t_cycles : int;  (** cycle at which this tenant completed *)
}

type multi_result = {
  m_cycles : int;  (** makespan across tenants *)
  tenants : tenant_result list;
  m_l2_bytes : float;
  m_dram_bytes : float;
}

val run_multi :
  ?config:config -> Sys_adg.t -> (Schedule.t list * int) list -> multi_result
(** [run_multi sys [(app1, tiles1); (app2, tiles2); ...]] runs every
    application concurrently on its tile share.
    @raise Invalid_argument if the shares exceed the system's tiles, a
    share is not positive, or a tenant has no schedules.
    @raise Failure if a region exceeds [max_cycles]. *)
