(** The admission queue: the one place a compile request waits.

    Requests are quota-checked, stamped with their admission time and
    their tenant's deadline class, parked in a per-tenant {!Drr}
    weighted-fair queue bounded by [capacity], and pumped into
    [Service.dispatch] through a bounded in-flight window — so under
    contention the share of worker time each tenant receives converges to
    its weight, instead of first-come-first-served.  Untenanted traffic
    is the auto-registered weight-1 tenant [""], which is plain FIFO
    under the service policy's deadline unchanged.

    {b Capacity.}  A request arriving while [capacity] requests are
    already queued is answered [Error Service.Queue_full] inline and
    counted in [Telemetry.record_rejection] (backpressure).  {!run}
    instead waits for room, since its caller holds the whole trace.

    {b Quota.}  A tenant with a token bucket is metered at submission
    against the injected clock: over-quota requests are answered
    immediately with [Error Service.Quota_exceeded] — a deterministic
    shed that never queues, never reaches a worker and is never retried —
    counted in [Telemetry.record_quota] and flight-recorded as
    ["quota_shed"].

    {b Batching.}  Consecutive same-overlay requests from the tenant
    holding the DRR round are dispatched as one group of at most 8
    (bounded by the tenant's round credit too, so batching cannot
    distort fairness), amortizing pool round-trips and
    registry/ADG-fingerprint resolution across the group.

    {b Exactly-one-response.}  Every {!submit_k} call invokes [k] exactly
    once: rejections and quota sheds answer inline, queued requests ride
    the service's per-request isolation. *)

module Service := Overgen_service.Service

type t

val create :
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?tenants:Tenant.t list ->
  Service.t ->
  t
(** [capacity] (default 1024) bounds the requests parked in the queue.
    The in-flight window — requests handed to the service but not yet
    answered — is 1 under a [Deterministic] service (dispatch order = DRR
    order) and [2 * n] under [Workers n].  [clock] (default
    [Unix.gettimeofday]) feeds the quota buckets — inject a fake for
    deterministic shed sets.  Unlisted tenants that appear in requests
    are auto-registered with weight 1, no quota, [Standard].
    @raise Invalid_argument if [capacity < 1]. *)

val submit_k : t -> Service.request -> k:(Service.response -> unit) -> unit
(** Admit, reject or quota-shed one request; [k] fires exactly once.
    Under a [Workers] service [k] runs on a worker domain; under
    [Deterministic] everything — including [k] — runs inline before this
    returns. *)

val hold : t -> unit
(** Park admitted requests in the weighted-fair queue without dispatching
    — rejections and quota sheds still answer inline.  Lets a caller
    build a backlog and then observe pure DRR order on {!release};
    {!drain} while held (with work queued) blocks until someone
    releases. *)

val release : t -> unit
(** Resume dispatch and pump the backlog. *)

val drain : t -> unit
(** Block until the weighted-fair queue is empty and nothing is in
    flight. *)

val run : t -> Service.request list -> Service.response list
(** Replay a whole trace: submit every request, waiting for room instead
    of rejecting, then {!drain}.  Returns exactly one response per
    request, sorted by id.  Not for use while held. *)

val on_complete : t -> (Service.response -> unit) -> unit
(** Register an observer called after each completion (on the completing
    thread) — how {!Manager} watches live traffic. *)

type stats = {
  admitted : int;          (** passed the capacity and quota gates *)
  quota_shed : int;        (** answered [Quota_exceeded] at the gate *)
  batches : int;           (** multi-request dispatch groups *)
  batched_requests : int;  (** requests that rode those groups *)
  max_batch : int;
  queued : int;            (** currently parked in the DRR queue *)
  inflight : int;
}

val stats : t -> stats
(** The counts are read back from the service's telemetry registry
    ({!Overgen_service.Telemetry.registry}), where they are stored once:
    [admitted] from [overgen_admission_admitted_total]; [quota_shed]
    from [overgen_service_quota_shed_total]; [batches],
    [batched_requests] and [max_batch] exactly from the
    [overgen_admission_group_size] histogram, whose buckets are the
    integers [1..8].  They therefore cover every admission queue in
    front of the same service (one, in every deployment here).  [queued]
    and [inflight] are read under the queue's lock. *)
