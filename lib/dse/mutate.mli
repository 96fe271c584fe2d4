(** ADG mutations for the spatial DSE.

    Random modifications grow/shrink/retune the graph; when
    [preserve] is set, destructive moves apply the schedule-preserving
    transformations of paper Section V-B — node collapsing, edge-delay
    preservation, and module-capability pruning — so that previously
    compiled schedules stay valid (possibly after cheap re-routing). *)

open Overgen_adg
open Overgen_scheduler

type usage
(** What the current schedules actually use: nodes, links, PE capabilities,
    port/engine features. *)

val usage_of : Schedule.t list -> usage
(** Tables indexed by node id, sized by the largest id the schedules use:
    a node added since (an id past that range) reads as unused. *)

val usage_text : usage -> string
(** Canonical text of every accessor the moves read: for each id from -1
    to one past the largest the schedules use, whether the node is used,
    its used PE capabilities, stated and indirect needs, pattern dims,
    delay need and through-switch pairs (newest first); then every used
    link.
    For tests: the usage oracle compares it with a reference
    implementation, and the work golden digests it. *)

val propose :
  Overgen_util.Rng.t ->
  preserve:bool ->
  caps_pool:Op.Cap.t ->
  Adg.t ->
  usage ->
  Adg.t * string
(** One mutation step; returns the new graph and a short description of the
    move (for tracing).  The result may be structurally invalid — the DSE
    abandons such proposals when scheduling fails. *)

val prune_unused : Adg.t -> usage -> Adg.t * int
(** Module-capability pruning: strip FU capabilities, engine features
    (indirect support, pattern dimensions), port features (stated, padding),
    and delay-FIFO depth that no mapped schedule exercises.  Returns the
    number of prunes applied.
    For tests: the pruning step of {!step}, called directly so tests can check
    it keeps every capability a schedule uses. *)
