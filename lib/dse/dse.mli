(** The unified system + accelerator design-space explorer (paper Section V),
    parallelized as an island model over OCaml 5 domains.

    Graph-based simulated annealing over the ADG with nested exhaustive
    system-parameter search: each iteration proposes a mutated ADG (random
    or schedule-preserving), repairs or reschedules the pre-generated mDFG
    variants onto it, exhaustively picks the best tile-count/NoC/L2
    configuration under the ML resource model's FPGA budget, and accepts
    stochastically on the bottleneck-model objective.

    {2 Island model}

    [config.islands] independent annealing chains split the total
    [config.iterations] budget and run concurrently on the shared
    {!Overgen_par.Pool}.  Each island draws from its own
    {!Overgen_util.Rng.streams} stream.  Every [config.migration_interval]
    iterations the islands hit a barrier: their bests are published to a
    shared elite pool and islands whose current design scores below the
    elite head adopt it.  Island 0 is the {e anchor}: it uses the exact
    sequential RNG stream and never adopts migrants, so

    - [islands = 1] reproduces the historical sequential explorer bit for
      bit for the same seed, and
    - an [islands = n] run with an [n]-times larger total budget (the same
      {e modeled-hours} budget, since islands run concurrently) always
      achieves an objective at least as good as the sequential run.

    Migration happens between rounds, on the driver, after the pool's
    barrier — results are deterministic in [(seed, islands,
    migration_interval, iterations)] regardless of worker timing.

    Wall-clock is accounted in {e modeled hours} at the paper's scale: full
    recompilation, schedule repair, and synthesis each carry a calibrated
    cost so the DSE-time figures (paper Q3, Q8) are reproducible.  A
    parallel run's modeled time is the maximum over its islands. *)

open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler
open Overgen_fpga
open Overgen_mlp

(** How mutations are proposed (the Q8 ablation switch):
    [Schedule_preserving] repairs existing schedules across transforms,
    [Random] allows arbitrary mutations with full rescheduling. *)
type mutation_policy = Random | Schedule_preserving

type config = {
  seed : int;
  iterations : int;
      (** total iteration budget, split evenly across the islands *)
  initial_temp : float;
  mutation_policy : mutation_policy;
  islands : int;  (** parallel annealing chains; 1 = sequential *)
  migration_interval : int;
      (** iterations between elite-migration barriers *)
  topologies : System.noc_topology list;
      (** NoC topologies the nested system DSE may choose from; the paper
          uses the crossbar only, the ring is the topology-specialization
          extension *)
}

val default_config : config
(** Today's sequential behaviour: [islands = 1],
    [mutation_policy = Schedule_preserving], [migration_interval = 25]. *)

type design = {
  sys : Sys_adg.t;
  per_app : Schedule.t list list;  (** one schedule list per application *)
  objective : float;               (** geomean estimated IPC *)
  predicted : Res.t;               (** ML-model full-SoC resources *)
}

type trace_point = {
  island : int;           (** which chain produced the point *)
  iter : int;             (** island-local iteration number *)
  modeled_hours : float;
  est_ipc : float;
}

type stats = {
  accepted : int;
  invalid : int;
  repaired : int;
  incremental : int;
      (** moves absorbed by incremental re-placement of only the broken
          instruction/port bindings (see {!Overgen_scheduler.Spatial.reschedule}) *)
  rescheduled : int;
}

type result = {
  best : design;
  trace : trace_point list;
      (** all islands' traces merged once after the run, stably sorted so
          [modeled_hours] is monotone *)
  stats : stats;           (** summed across islands *)
  wall_seconds : float;    (** real OCaml runtime of this exploration *)
  modeled_hours : float;   (** paper-scale DSE wall-clock: max over islands *)
}

val compile_apps : tuned:bool -> Ir.kernel list -> Compile.compiled list
(** Pre-generate all mDFG variants for the workload set (Section V-A). *)

val caps_pool : Compile.compiled list -> Op.Cap.t
(** Capability pairs any workload can use; the mutation vocabulary.
    For tests: the scheduler tests build a DSE-shaped overlay from the same
    mutation vocabulary. *)

(** Periodic durable checkpointing of a run into an
    {!Overgen_store.Store}.  A snapshot is written under
    [(ns "dse-checkpoint", key)] every [interval] migration rounds and
    once more when the driver loop exits; it captures the complete
    barrier state of every island — current/best designs, traces,
    counters, and the exact {!Overgen_util.Rng} stream word — plus the
    shared elite pool, so a resumed run continues {e bit-identically} to
    an uninterrupted one.  Checkpoints are stamped with a signature of
    the config and workload; resuming under a different one is refused
    rather than silently diverging. *)
type checkpoint = {
  store : Overgen_store.Store.t;
  key : string;       (** store key naming this run *)
  interval : int;     (** migration rounds between snapshot writes; >= 1 *)
}

val explore :
  ?config:config ->
  ?device:Device.t ->
  ?checkpoint:checkpoint ->
  ?resume:bool ->
  ?stop_after_rounds:int ->
  model:Predict.t ->
  Compile.compiled list ->
  result
(** Run the island-model DSE for a pre-compiled workload set.

    [checkpoint] enables periodic durable snapshots (see {!checkpoint}).
    [resume] (default [false]) loads the snapshot at [checkpoint.key]
    instead of seeding fresh islands and continues it bit for bit;
    it fails if no checkpoint exists, the record is unreadable, or its
    signature does not match this config/workload.  [stop_after_rounds]
    halts the driver after that many migration rounds (a final snapshot
    is still written) — the hook the kill-and-resume tests use to
    simulate an interrupted run.

    Islands, and inside each island every iteration's per-app rescoring,
    seed-design mapping and usage analysis, run on a worker pool that
    concurrent and back-to-back calls share: one worker domain beside the
    calling one (more on larger machines).  A call starts the pool if none
    is live, and a watcher thread shuts it down 0.25-0.5 s after the last call
    returns, so a process that explores once, such as a serving process
    after a fleet [promote], does not keep a parked domain.  The watcher
    runs in the domain of the call that started the pool, so joining that
    domain waits for the release.

    @raise Invalid_argument if [config.islands < 1],
    [config.migration_interval < 1], [checkpoint.interval < 1],
    [stop_after_rounds < 1], or [resume] without [checkpoint]. *)

val explore_kernels :
  ?config:config ->
  ?device:Device.t ->
  ?tuned:bool ->
  model:Predict.t ->
  Ir.kernel list ->
  result
(** Convenience: compile then explore. *)

val system_dse :
  ?attrs:(string * string) list ->
  ?memo:Predict.memo ->
  device:Device.t ->
  model:Predict.t ->
  (System.t * Res.t) array ->
  Adg.t ->
  Schedule.t list list ->
  (float * System.t * float * Res.t) option
(** The nested exhaustive system DSE (Section V-A) over candidate systems
    paired with their uncore resources ({!Overgen_fpga.Oracle.system_overhead}),
    in {!System.candidates} order: the [(score, system, objective,
    predicted SoC resources)] of the best-scoring candidate whose SoC fits
    the device, the first of equal scores; [None] if none fits.  [attrs]
    go on its [dse_system] span.
    For tests: the tile-hoisted sweep is compared with a scan that scores
    every candidate with the per-stream perf model. *)

type sched_outcome = {
  per_app : Schedule.t list list;
  n_repaired : int;
  n_incremental : int;
  n_rescheduled : int;
      (** [Full] outcomes plus additive re-maps that succeeded *)
}

val schedule_all :
  ?attrs:(string * string) list ->
  Overgen_par.Pool.t ->
  additive:bool ->
  Sys_adg.t ->
  Compile.compiled list ->
  Schedule.t list list ->
  sched_outcome option
(** One iteration's rescore of every application on a mutated sysADG,
    from its schedules [prior] on the graph before the move, as pool jobs:
    {!Overgen_scheduler.Spatial.reschedule}, and after an [additive] move
    a speculative full re-map of every app, kept where the app was
    [Repaired] and the re-map's IPC is no worse, and standing in for the
    full tier where both pinned tiers fail.  The result is decided in app
    order as the sequential loop decided it: [None] at the first app that
    cannot be scheduled, or the first exception, re-raised.  [attrs] go
    on its spans.
    For tests: the job split and its fold are checked against the
    sequential rescore, including discarded re-maps and skipped jobs. *)

val evaluate :
  model:Predict.t ->
  Sys_adg.t ->
  Compile.compiled list ->
  (design, string) Stdlib.result
(** Schedule a workload set on a fixed design (no exploration) and evaluate
    the objective; used for the hand-built general overlay and for
    leave-one-out mapping. *)
