(** The spatial scheduler (paper Sections II-B, IV-B).

    A deterministic greedy mapper: arrays are bound to memory engines using
    capacity, route and access-pattern legality plus the reuse heuristics of
    Section IV-B; instructions are placed on capable PEs nearest their
    producers; operand routes are found by BFS through switches with
    link-sharing only for common sources; operand delays are balanced within
    the delay-FIFO budget.  All code regions of one application share the
    fabric, so scheduling is performed against a shared-usage context.

    The speculative schedule/score/rollback loop is O(changes): every
    mutation of the usage tables pushes an inverse entry onto an undo log,
    a snapshot is just a mark into that log, and restore pops back to the
    mark. *)

open Overgen_adg
open Overgen_mdfg

type ctx
(** Mutable resource usage shared by all regions of one application. *)

val topo_text : Adg.t -> string
(** The scheduler's per-graph topology as canonical text: per node its
    successors in order, each with its edge id (CSR order: ids ascend in
    (source, destination) order) and lane capacity; the PE, input-port,
    output-port, scratchpad and DMA ids in id order; the first recurrence
    and register engine (-1 for none) and the deepest input-port FIFO.
    Builds the topology unless this domain's one-slot cache holds the
    graph, and leaves it cached.
    For tests: the topology property compares it with the same facts read
    through the {!Adg} API. *)

val bfs_map : Adg.t -> Adg.id -> int array
(** A copy of the scheduler's memoized BFS map from a node: per node id
    the hop count of the shortest path that passes only switches between
    the ends, [max_int] where there is none.
    For tests: see {!topo_text}. *)

val fresh_ctx : Sys_adg.t -> ctx
(** For tests: with {!schedule_variant}, {!snapshot}, {!restore},
    {!capture} and {!replay}, the context operations the rollback tests
    drive one by one. *)

type snap
(** A mark into the context's undo log (generation-stamped). *)

val snapshot : ctx -> snap
(** O(1): records the current undo-log position.  Allocates nothing but the
    mark itself.
    For tests: see {!fresh_ctx}. *)

val restore : ctx -> snap -> unit
(** Pop the undo log back to the mark, in time proportional to the number
    of mutations since {!snapshot}.  Restoring the same mark repeatedly is
    fine (the second restore pops nothing), as is restoring nested marks in
    LIFO order.
    For tests: see {!fresh_ctx}.
    @raise Invalid_argument if the mark is stale, i.e. the
    context was already rolled back past it by restoring an older mark —
    the captured state no longer exists in the log. *)

val debug_state : ctx -> string
(** Canonical dump of the observable usage state (used PEs/ports, spad
    bytes, engine demand, link owners, next route tag); two contexts with
    equal dumps are observably identical to the scheduler.
    For tests: the reference the rollback tests compare a restored context
    against. *)

type redo
(** The final value of every usage cell changed since a mark, each link
    claim made since, and the route-tag counter. *)

val capture : ctx -> snap -> redo
(** Record the state the mutations since the mark produced, so a later
    {!restore} to that mark can be undone by {!replay}.  The record is
    the context's own buffer, which the next capture overwrites: only
    the latest capture can be replayed.
    For tests: see {!fresh_ctx}. *)

val replay : ctx -> redo -> unit
(** Re-apply a captured state on top of the state at its mark (through the
    logged setters, so it can be restored again): the context ends exactly
    as it was at {!capture} time.
    For tests: see {!fresh_ctx}. *)

val schedule_variant : ctx -> Compile.variant -> (Schedule.t, string) result
(** Map one region variant onto the hardware, consuming context resources.
    On failure the context is left unchanged.
    For tests: see {!fresh_ctx}. *)

val schedule_app :
  Sys_adg.t -> Compile.compiled -> (Schedule.t list, string) result
(** Schedule every region of an application concurrently onto the fabric,
    choosing for each region the most aggressive variant that fits ("relax
    DFG complexity" fallback).  Returns one schedule per region.

    A region's variants are scored widest first by iterations per cycle
    (unroll / II, ties to the wider).  A score never exceeds its variant's
    unroll, so scoring stops as soon as the best score reaches the next
    variant's unroll: no later variant could beat it.  Before that, two
    exact bounds skip a variant without placing it:
    - {e cannot place}: it has more instructions of one (op, dtype) than
      free PEs capable of them, or more instructions than free PEs, so
      greedy placement must fail.  Checked before anything is bound.
    - {e cannot win}: once a best score exists, the variant's recurrence,
      register, memory and port bindings are made and the II is computed
      with link sharing and skew at 1.  Those two only multiply into the
      II, so this is a lower bound on the final II.  If unroll over it does
      not strictly exceed the best score, the bindings are rolled back and
      placement, routing and delay balancing are skipped.
    Neither skip changes a schedule or an error.  Skipped variants count
    in [overgen_scheduler_variants_pruned_total], not in
    [overgen_scheduler_variants_tried_total] (or accepted).  A new best
    whose score already reaches the next variant's unroll stays in the
    context; otherwise it is rolled back and rebuilt at the end by {!replay}ing the
    record {!capture}d before the rollback, not by scheduling it again.
    [overgen_scheduler_rollback_entries_total] counts only what is rolled
    back.  When no variant fits, the error is the widest variant's; if
    that variant was skipped as unplaceable, it is scheduled once more,
    from the same state, for its message. *)

val repair :
  Sys_adg.t -> Schedule.t list -> (Schedule.t list, string) result
(** Schedule repair (paper Section V-A): when every prior schedule still
    passes {!Schedule.validate} on the mutated hardware, recompute IIs;
    otherwise re-route every operand path with placements pinned.  That
    slow path checks each instruction's capability and width on its PE,
    but only the kind of each port and engine, not the port and engine
    rules {!Schedule.validate} checks (checking them would change which
    tier answers a reschedule, and with it the DSE's results), so it can
    return schedules [validate] rejects.  Fails if a placement breaks that check
    or lies beyond the graph, or an operand finds no route.
    For tests: {!reschedule} is its caller here; the tests drive the repair
    tier alone. *)

type reschedule_outcome =
  | Repaired     (** placements intact; routes refreshed / IIs recomputed *)
  | Incremental  (** only the broken placements were re-mapped *)
  | Full         (** conflict: fell back to a full re-map *)

val reschedule :
  Sys_adg.t ->
  Compile.compiled ->
  prior:Schedule.t list ->
  (Schedule.t list * reschedule_outcome, string) result
(** Re-map an application after a hardware mutation, reusing [prior] (its
    schedules on the pre-mutation graph) as far as possible: first try
    {!repair}; then re-place only the instructions and ports whose bindings
    the mutation broke (keeping all intact placements pinned) and re-route;
    finally fall back to {!schedule_app} from scratch.  The first two tiers
    share one re-pin path, which repair runs with nothing broken.
    Engine-binding breaks always fall through to the full re-map, since
    re-binding an array cascades into port legality. *)

val reschedule_pinned :
  Sys_adg.t ->
  prior:Schedule.t list ->
  (Schedule.t list * reschedule_outcome) option
(** {!reschedule}'s first two tiers: [Some] with [Repaired] or
    [Incremental], or [None] where only the full re-map
    ([schedule_app]) can help, which the caller runs or already has. *)
