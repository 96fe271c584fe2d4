(** The decoupled-spatial compiler: loop-nest regions to mDFG variants.

    For each region the compiler pre-generates several program versions at
    different unrolling degrees (paper Section V-A): the DSE keeps all of
    them and only needs one to schedule successfully, falling back to less
    aggressive variants when hardware is scarce ("relax DFG complexity").

    Each variant bundles the CSE'd dataflow graph, the streams with their
    reuse annotations, and the array nodes — together, the memory-enhanced
    DFG of paper Section IV. *)

open Overgen_workload

type variant = {
  kernel : string;
  region : Ir.region;
  tuned : bool;
  unroll : int;
  dfg : Dfg.t;
  streams : Stream.t list;
  arrays : Stream.array_info list;
  port_slots : (int * Ir.aref list) list;
      (** for each DFG vector port node, the (lane-substituted) array
          reference each lane carries — the information a functional
          executor needs to replay the decoupled execution *)
  iters : float;    (** loop iterations covered by the region *)
  firings : float;  (** DFG executions = iters / unroll *)
}

type compiled = {
  kname : string;
  suite : Suite.t;
  window_reuse : bool;
  needs_broadcast : bool;
  per_region : variant list list;
      (** one inner list per region, unroll-ascending *)
}

val compile : ?tuned:bool -> Ir.kernel -> compiled
(** Compile all regions of a kernel into their variant sets, one per
    unrolling degree 1, 2, 4, 8, 16 up to the innermost trip count.  [tuned]
    selects the manually tuned source variant when the kernel has one. *)

val compile_region :
  Ir.kernel -> Ir.region -> tuned:bool -> unroll:int -> variant
(** Compile a single region at a fixed unrolling degree. *)

val widest : variant list -> variant
(** The most aggressive (largest-unroll) variant.
    For tests: the tests check that the most aggressive variant is the one
    with the largest unroll.
    @raise Invalid_argument on the empty list. *)

val hash_variant : variant -> string
(** Content address of one mDFG variant: the hex digest of a canonical dump
    of everything the spatial scheduler consumes (DFG nodes and operands,
    streams with reuse annotations, array nodes, port slots).  Structurally
    identical variants hash equal regardless of how they were produced.
    For tests: the per-variant fingerprint that the DSE golden table and the
    hash-consing tests compare. *)

val hash_compiled : compiled -> string
(** Content address over every variant of every region of a compiled
    application, plus its suite-level flags.  Together with a sysADG
    fingerprint ({!Overgen_adg.Serial.fingerprint}) this keys the compile
    service's schedule cache. *)

(** Per-kernel summary used for the paper's Table II. *)
type summary = {
  n_in_ports : int;
  n_out_ports : int;
  n_arrays : int;
  n_mul : int;
  n_add : int;
  n_div : int;
}

val summarize : compiled -> summary
(** Counts over the widest variant of every region, as Table II reports
    ports/arrays/ops "in the best DFG". *)
