(** The HLS + AutoDSE baseline (paper Section VII).

    An analytical model of a state-of-the-art HLS toolchain (Merlin/Vitis)
    compiling each kernel to a fixed-function pipeline, and a re-implementation
    of AutoDSE's bottleneck-guided pragma exploration on top of it.

    The model encodes the code-pattern weaknesses the paper measured in
    Table IV: variable loop trip counts and small-stride access inflate the
    pipeline initiation interval until manual kernel tuning removes them;
    sliding-window kernels get line-buffered reuse only in their tuned form.
    HLS designs clock higher than overlays but pay per-design synthesis. *)

open Overgen_workload
open Overgen_fpga

type pragmas = {
  unroll : int;     (** innermost-loop parallel factor *)
  partition : int;  (** cyclic array partitioning factor (BRAM ports) *)
}

type design = {
  ii : int;             (** worst region initiation interval achieved *)
  cycles : float;
  freq_mhz : float;
  res : Res.t;
}

val evaluate : ?dram_channels:int -> tuned:bool -> Ir.kernel -> pragmas -> design
(** Model one HLS run with the given pragmas.
    For tests: the tests pin single-pragma runs of the HLS model (Table IV IIs,
    unroll and partition effects) that {!autodse} explores. *)

val runtime_ms : design -> float

type explore = {
  best : design;
  candidates : int;     (** HLS runs the explorer performed *)
  dse_hours : float;    (** modeled exploration time (one HLS run each) *)
  synth_hours : float;  (** modeled final place-and-route time *)
}

val autodse : ?dram_channels:int -> ?device:Device.t -> tuned:bool -> Ir.kernel -> explore
(** Bottleneck-guided exploration: repeatedly doubles the pragma limiting
    performance while the design fits the device, like AutoDSE's
    finite-state explorer.  Kernels covered by AutoDSE's pre-built database
    (gemm) start from the stored configuration at no exploration cost. *)

