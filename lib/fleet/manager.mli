(** The fleet manager: supervision of the overlay registry as a
    continuous generate→compile loop.

    Watches live completions (via {!attach} or {!observe}) — each
    kernel's demand — and acts on the registry in two directions:

    - {e retire}: {!retire} unregisters a named overlay, purges every
      schedule-cache record keyed by its (now unreachable) ADG
      fingerprint from memory and the durable log, and compacts the
      store — a cold overlay stops costing registry space, cache
      capacity and disk, and the purge-before-compact order guarantees
      gc never strands orphaned cache records;
    - {e promote}: once enough traffic accumulated, {!maybe_promote}
      runs a checkpointed background [Dse.explore] for the hottest
      {e under-served} kernels (miss-weighted: demand the cache already
      absorbs does not trigger regeneration) and atomically registers
      the winner under a fresh [fleet-N] name.

    Both transitions are flight-recorded as pinned ["retire"] /
    ["promote"] events. *)

module Service := Overgen_service.Service
module Registry := Overgen_service.Registry
module Cache := Overgen_service.Cache

type config = {
  protected : string list; (** names {!retire} refuses (e.g. "general") *)
  promote_min_requests : int;
      (** completions observed before {!maybe_promote} fires; 200 *)
  dse_iterations : int;    (** background exploration budget; 400 *)
  dse_top_kernels : int;   (** workload-mix size per exploration; 4 *)
  dse_seed : int;
      (** base seed; promote [n] explores with [dse_seed + n], so the
          whole fleet evolution is reproducible *)
  gc_on_retire : bool;     (** compact the store after each retire; true *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?cache:Cache.t ->
  ?store:Overgen_store.Store.t ->
  model:Overgen_mlp.Predict.t ->
  Registry.t ->
  t
(** [cache]/[store] enable the retire path's purge and gc (pass the same
    instances the service uses); [model] feeds the background DSE and the
    promoted overlays. *)

val observe : t -> Service.response -> unit
(** Feed one completion into the fleet view. *)

val attach : t -> Admission.t -> unit
(** Subscribe {!observe} to an admission layer's completions. *)

val retire : t -> string -> (int, string) result
(** Retire one overlay by name: unregister (delete-through to the
    registry's store), purge its fingerprint's schedule-cache records
    {e unless} another registered name aliases the same design, then
    compact the store if configured.  Returns the number of cache
    records purged.  Errors on protected or unknown names. *)

val maybe_promote : t -> Registry.entry option
(** The trigger: if at least [promote_min_requests] completions
    accumulated since the last promote and some kernel demand was seen,
    explore for the top under-served kernels and promote as [fleet-N].
    Resets the observation window on success. *)

val promotes : t -> int
(** Promotes so far.
    For tests: the fleet tests check that a fired trigger counts one. *)
