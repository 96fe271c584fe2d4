(** Request telemetry for the compile service.

    Counts completed requests by outcome, admission rejections, and
    per-request service latencies; prints a one-screen report with exact
    percentiles (one sort via {!Overgen_util.Stats.percentiles}).
    Thread-safe.

    Implemented on a private {!Overgen_obs.Metrics} registry — one per
    instance, exposed by {!registry} — so the same counts can be dumped in
    Prometheus exposition format ([overgen_service_requests_total] by
    outcome, [overgen_service_rejections_total], and an
    [overgen_service_latency_seconds] histogram) and are guaranteed to
    agree with {!snapshot}. *)

(** How a completed request was served.  [Uncached] means caching was
    disabled for the service; [Failed] covers unknown overlays, compile
    errors and negatively-cached errors. *)
type outcome = Hit | Miss | Uncached | Failed

type t

val create : unit -> t

val registry : t -> Overgen_obs.Metrics.registry
(** The backing metrics registry, e.g. for
    {!Overgen_obs.Metrics.render_prometheus}.  The service also registers
    its queue-wait histogram here. *)

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
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val snapshot : t -> snapshot

val hit_rate : snapshot -> float
(** hits / (hits + misses); 0 when no cached requests completed. *)

val report : ?label:string -> wall_s:float -> snapshot -> string
(** One-screen text report; [wall_s] is the trace wall-clock used for the
    throughput line. *)
