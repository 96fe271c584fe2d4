(** One shard's node state machine.

    Shaped like a verdi-runtime arrangement: a static cluster
    configuration names every peer up front, [init] builds the node's
    state and [handle_net] turns one incoming message into replies.
    Nodes exchange messages only with clients, never with each other.
    A crash-restart is [shutdown] then [init] from the same
    configuration: the durable store replays, so the warm state
    (registered overlays, cached schedules) survives the crash.

    The node owns the slice of the cache keyspace that the
    {!Shard_map} ring assigns to its index.  A compile request whose
    {!Wire.route_key} hashes elsewhere is answered at once with
    [Redirect] naming its owner, and the client re-sends it there.  It
    is never computed here, which keeps each key's cache entries (and
    their durable records) on exactly one shard.

    Every compile the node owns waits in one {!Overgen_fleet.Admission}
    queue in front of its service; untenanted requests are the weight-1
    tenant [""], plain FIFO.

    The node is transport-agnostic: it never touches a socket.  The
    server layer feeds it decoded {!Wire.req_msg}s and gets every
    response back through the [respond] callback. *)

type peer = { host : string; port : int }

val parse_cluster : string -> (peer array, string) result
(** Comma-separated ["host:port,host:port,..."]; index = shard id.  The
    last [':'] of each endpoint splits, so bracketless IPv6 literals
    parse.  Rejects empty clusters and malformed endpoints. *)

type config = {
  me : int;                  (** this node's index in [cluster] *)
  cluster : peer array;      (** static membership, index = shard id *)
  store_path : string option;(** durable store; [None] = memory only *)
  workers : int;             (** service worker domains *)
  queue_capacity : int;      (** admission queue capacity *)
  cache_capacity : int;
  policy : Overgen_service.Service.policy;
  tenants : Overgen_fleet.Tenant.t list;
      (** weights, quotas and deadline classes for the admission
          queue; unlisted tenants get weight 1, no quota *)
}

val default_config : cluster:peer array -> me:int -> config
(** No store, 2 workers, queue 1024, cache 4096,
    {!Overgen_service.Service.default_policy}, no tenants. *)

type t

val init : ?setup:(Overgen_service.Registry.t -> unit) -> config -> (t, string) result
(** Build the node: open the store (if any), restore the registry and
    warm-start the cache from it, then run [setup] to register whatever
    overlays the store did not already hold — a rebooted node whose
    store has the overlays skips regeneration entirely.  Errors are
    structural (unopenable store, [setup] raised, bad config). *)

val handle_net : t -> Wire.req_msg -> respond:(Wire.resp_msg -> unit) -> unit
(** Process one decoded message; [respond] is called exactly once per
    message.  Everything but an owned compile is answered before
    [handle_net] returns: a ping, scrape or quiesce with its reply, a
    misrouted compile with [Redirect].  An owned compile goes to the
    admission queue, which calls [respond] later from a worker domain
    (or inline, for a rejection or a quota shed), so [respond] must be
    thread-safe.  A quiesced node answers compiles with [Shutting_down]
    instead of admitting them. *)

val owner_of : t -> Wire.request -> int
(** The ring owner of a request's {!Wire.route_key}.
    For tests: the tests pick a request another shard owns, to drive the
    redirect path. *)

val quiesce : t -> unit
(** Stop admitting compiles; already-admitted requests still complete
    and their [respond] callbacks still run. *)

val shutdown : t -> unit
(** Drain the admission queue, stop the service workers, close the
    store.  Idempotent. *)

val me : t -> int

val registry : t -> Overgen_service.Registry.t
(** For tests: with {!cache}, how tests inspect a node's state (overlays
    restored by a restart, scheduler runs under resends). *)

val cache : t -> Overgen_service.Cache.t
(** For tests: see {!registry}. *)

(** {2 Ops plane} *)

val metrics : t -> Overgen_obs.Metrics.registry
(** The shard's one metrics registry: the service's
    {!Overgen_service.Telemetry.registry}.  The node counts
    [overgen_net_served] there, the admission queue and the transport
    server register theirs, and a [Metrics_req] answers with one
    Prometheus dump of it — after setting the
    [overgen_net_cache_entries] and [overgen_net_quiesced] gauges from
    the live values. *)
