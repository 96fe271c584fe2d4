(** Request telemetry for the compile service.

    Counts completed requests by outcome, admission rejections, and
    per-request service latencies; prints a one-screen report.
    Thread-safe, and constant-size however many requests it records.

    Every count lives once, in a {!Overgen_obs.Metrics} registry — one
    per instance, exposed by {!registry} — so the same counts can be
    dumped in Prometheus exposition format
    ([overgen_service_requests_total] by outcome,
    [overgen_service_rejections_total], and an
    [overgen_service_latency_seconds] histogram) and {!snapshot} reads
    them back from there.  The latency histogram has fixed log-spaced
    buckets from 1 us to ~113 s at ratio 2{^1/4}.  A snapshot percentile
    is interpolated inside the bucket that holds the sample at its rank,
    so it is within 19% of that sample from 1 us up to ~113 s (within
    1 us below that; a sample past the last bucket reads as ~113 s).
    [mean_ms] is exact (sum over count). *)

(** How a completed request was served.  [Uncached] means caching was
    disabled for the service; [Failed] covers unknown overlays, compile
    errors and negatively-cached errors. *)
type outcome = Hit | Miss | Uncached | Failed

type t

val create : unit -> t

val registry : t -> Overgen_obs.Metrics.registry
(** The backing metrics registry, e.g. for
    {!Overgen_obs.Metrics.render_prometheus}.  It is the shard's only
    registry: the service registers its queue-wait histogram here, the
    admission queue its counts, and a network node and its server their
    instruments. *)

val record : ?tenant:string -> t -> outcome -> service_s:float -> unit
(** Record one completed request and its processing time.  A non-empty
    [tenant] additionally bumps the tenant-labeled request counter and
    latency histogram on the same registry; the unlabeled aggregates are
    always bumped, so pre-tenant consumers see unchanged totals. *)

val record_rejection : t -> unit
(** Record one admission rejection ([Overgen_fleet.Admission] at
    capacity). *)

val record_fault : t -> unit
(** Record one exception observed while processing a request (isolated —
    the request still gets exactly one response). *)

val record_retry : ?tenant:string -> t -> unit
(** Record one transient-failure retry attempt. *)

val record_deadline : ?tenant:string -> t -> unit
(** Record one request abandoned because its deadline expired. *)

val record_quota : ?tenant:string -> t -> unit
(** Record one over-quota request shed deterministically at admission
    ([Overgen_fleet.Admission]'s token-bucket verdict). *)

val tenant_requests : t -> (string * int) list
(** Completed-request counts per tenant id (only tenants that recorded at
    least one labeled event appear), sorted by id — the fairness
    numerator the fleet bench and smoke assertions use. *)

type snapshot = {
  requests : int;  (** completed; hits + misses + uncached + failures *)
  hits : int;
  misses : int;
  uncached : int;
  failures : int;
  rejections : int;
  faults : int;  (** exceptions observed (each request still answered) *)
  retries : int;
  deadlines : int;
  quota_shed : int;  (** over-quota admission sheds (deterministic) *)
  mean_ms : float;  (** exact *)
  p50_ms : float;  (** p50/p90/p99/max: interpolated from the buckets *)
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val snapshot : t -> snapshot

val hit_rate : snapshot -> float
(** hits / (hits + misses); 0 when no cached requests completed.
    For tests: the tests check its empty-snapshot value. *)

val report : ?label:string -> wall_s:float -> snapshot -> string
(** One-screen text report; [wall_s] is the trace wall-clock used for the
    throughput line. *)
