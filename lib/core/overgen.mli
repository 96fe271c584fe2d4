(** OverGen: domain-specific overlay generation for FPGAs.

    The end-to-end flow of the paper, as a library:

    {[
      let model = Overgen.train_model () in
      (* one-time, per domain: generate a specialized overlay *)
      let overlay = Overgen.generate ~model Overgen_workload.Kernels.(of_suite Suite.Dsp) in
      (* seconds, per application: compile and run *)
      match Overgen.run overlay (Overgen_workload.Kernels.find "fir") with
      | Ok report -> Format.printf "%.3f ms@n" report.wall_ms
      | Error e -> prerr_endline e
    ]}

    The compilation surface is exactly three entry points — {!compile}
    (from a kernel), {!compile_variants} (from pre-compiled mDFG variant
    sets), and {!run} (compile + simulate) — all threading one
    {!compile_opts} record; {!default_opts} gives the stock behavior.

    The heavy phases (DSE hours, synthesis hours) are modeled at paper scale
    but execute in seconds; compilation and simulation are real. *)

open Overgen_adg
open Overgen_workload
open Overgen_scheduler
open Overgen_fpga
open Overgen_mlp

type overlay = {
  design : Overgen_dse.Dse.design;  (** the chosen sysADG and its schedules *)
  synth : Oracle.full;              (** post-synthesis resources and clock *)
  model : Predict.t;
  dse : Overgen_dse.Dse.result option;  (** trace, when DSE was run *)
}

val train_model : ?seed:int -> unit -> Predict.t
(** Train the ML FPGA-resource model (paper Section V-D). *)

val generate :
  ?config:Overgen_dse.Dse.config ->
  ?device:Device.t ->
  ?tuned:bool ->
  model:Predict.t ->
  Ir.kernel list ->
  overlay
(** Run the full overlay-generation DSE for a workload domain and
    "synthesize" the winner. *)

val general : model:Predict.t -> Ir.kernel list -> (overlay, string) result
(** Evaluate the hand-designed general overlay on a workload set (no DSE). *)

val on_design :
  model:Predict.t -> Sys_adg.t -> Ir.kernel list -> (overlay, string) result
(** Map a workload set onto an existing design (e.g. leave-one-out). *)

(** Per-application execution report. *)
type report = {
  cycles : int;
  wall_ms : float;
  ipc : float;
  compile_seconds : float;  (** real, measured compile+schedule time *)
}

val fingerprint : overlay -> string
(** Structural fingerprint of the overlay's sysADG
    ({!Overgen_adg.Serial.fingerprint}); the first half of every schedule
    cache key ({!Overgen_service.Cache.key}). *)

(** Options threaded through every compilation entry point.

    - [tuned]: run the tuned mDFG compiler passes.
    - [stored]: whether to consider the DSE's stored per-app schedules as
      candidates (they win only when they estimate faster than a fresh
      spatial schedule).  [`Auto] considers them iff [not tuned] — tuned
      variant sets don't match the DSE-era schedules.  [`Ignore] never
      does, so the spatial scheduler always decides. *)
type compile_opts = { tuned : bool; stored : [ `Auto | `Ignore ] }

val default_opts : compile_opts
(** [{ tuned = false; stored = `Auto }]. *)

(** Result of a compilation: the chosen schedules and measured wall-clock
    seconds. *)
type compiled = { schedules : Schedule.t list; seconds : float }

val compile :
  ?opts:compile_opts -> overlay -> Ir.kernel -> (compiled, string) result
(** Compile an application onto an existing overlay — mDFG variant sets,
    then spatial scheduling.  [compiled.seconds] is measured wall-clock
    time: the paper's "compilation is 10000x faster" claim. *)

val compile_variants :
  ?opts:compile_opts ->
  overlay ->
  Overgen_mdfg.Compile.compiled ->
  (compiled, string) result
(** Like {!compile} but starting from already-compiled mDFG variant sets;
    the compile service calls this with memoized mDFGs, behind its own
    schedule cache, so cache hits skip the compiler entirely.
    [opts.tuned] only affects the [`Auto] stored policy here — the
    variant sets were compiled by the caller. *)

val run :
  ?opts:compile_opts -> overlay -> Ir.kernel -> (report, string) result
(** {!compile}, then simulate cycle-level and convert to wall time at the
    synthesized clock. *)

val reconfigure_us : overlay -> float
(** Microseconds to switch the overlay to another application's
    configuration: the fast-reconfiguration claim (paper Q5). *)

val binary : overlay -> Schedule.t list -> Overgen_isa.Assemble.program
(** Lower compiled schedules to the accelerator binary: the spatial-mapping
    bitstream plus the stream-command program (paper Figure 3). *)

val rtl : overlay -> Overgen_rtl.Emit.rtl
(** Emit structural Verilog for the overlay SoC. *)

val verify_functional : ?unroll:int -> Ir.kernel -> (unit, string) result
(** Check the compiler end to end on concrete data: golden loop-nest
    interpretation vs decoupled replay (the paper's pre-FPGA functional
    verification step). *)

val fpga_reflash_ms : float
(** Full-bitstream FPGA reconfiguration time the paper compares against. *)
