(** The overlay compile service: a request processor.

    An in-process server for the paper's deployment model: overlays are
    generated once (hours of modeled DSE + synthesis), then kept warm in a
    {!Registry} while many users submit compile requests against them.
    Each request resolves a named overlay, compiles the kernel to its mDFG
    variant set (memoized by the payload's text), and spatially schedules
    it — unless the content-addressed {!Cache} already holds the schedules,
    in which case the request is served in microseconds.

    The service holds no queue.  [Overgen_fleet.Admission] is the one
    queue in front of it (weighted-fair order, capacity, quotas, deadline
    classes) and hands admitted requests to {!dispatch}, which processes
    them in one of two modes:
    - [Deterministic]: inline on the caller's thread — single-threaded
      and exactly reproducible, the mode tests use.
    - [Workers n]: as one job on an {!Overgen_par.Pool} of [n] OCaml 5
      domains (the pool the island-model DSE uses).  Scheduling is
      deterministic and the cache coalesces concurrent computations of
      one key, so the responses and the hit/miss totals match the
      deterministic mode for the same request list.

    {b Fault tolerance.}  Failure is per-request, never per-batch: an
    exception anywhere in a request's processing (compiler, scheduler,
    cache store — injected by {!Overgen_fault.Fault} or genuine) becomes
    an [Error] response for that request while every other request
    completes normally, and each dispatched request gets exactly one
    response.  A {!policy} adds per-request deadlines, measured from
    admission (expired requests are shed with {!Deadline_exceeded}), and
    seeded exponential-backoff retries for transient failures.  Transient
    failures are never cached. *)

open Overgen_workload

type mode = Deterministic | Workers of int

(** What a request asks to compile: a lowered IR kernel (the in-process
    path), or pragma'd C source parsed by {!Overgen_frontend.Frontend}
    on the worker, inside the request's fault isolation — and only when
    the compile memo, keyed on the payload's text, misses.  A [Source]
    payload that parses compiles under exactly the same schedule-cache
    key as the equivalent [Kernel] payload. *)
type payload = Kernel of Ir.kernel | Source of string

val payload_name : payload -> string
(** The kernel name, for telemetry labels ({!Frontend.source_name} peek
    on sources; ["<source>"] when even that fails). *)

type request = {
  id : int;           (** caller-chosen; responses are sorted by it *)
  user : string;      (** for telemetry/tracing only *)
  tenant : string;
      (** multi-tenant identity: labels telemetry, selects the
          weighted-fair queue and quota bucket in
          [Overgen_fleet.Admission], and rides the wire envelope.
          [""] for single-tenant deployments. *)
  overlay : string;   (** registry name to compile against *)
  payload : payload;
  tuned : bool;
  trace : string;
      (** distributed-trace id ({!Overgen_obs.Obs.Span.fresh_trace});
          processing re-establishes it as the worker domain's trace
          context so spans and flight-recorder events correlate across
          process hops.  [""] for untraced requests. *)
  deadline_s : float option;
      (** per-request deadline overriding [policy.deadline_s] — how a
          tenant's deadline class maps onto the policy; [None] defers
          to the service-wide policy *)
}

type error =
  | Unknown_overlay of string
  | Queue_full
      (** backpressure: the admission queue was at capacity *)
  | Quota_exceeded
      (** the tenant's token-bucket quota is exhausted: a deterministic
          shed decided at admission, never queued, never retried *)
  | Source_error of string
      (** a [Source] payload the frontend rejected: deterministic, never
          retried, located as "line:col: message" *)
  | Compile_error of string
      (** deterministic failure: a scheduling verdict, a deterministic
          injected fault, or an isolated unexpected exception *)
  | Transient_failure of string
      (** a transient fault survived every retry the policy allowed *)
  | Deadline_exceeded     (** the request's deadline expired *)
  | Shutdown

val error_to_string : error -> string

(** The fault-tolerance policy of a service instance.  The defaults are
    inert: no deadline, and the retry machinery only engages when a
    transient failure actually occurs, so a fault-free run behaves
    exactly like a service without a policy. *)
type policy = {
  deadline_s : float option;
      (** per-request budget measured from admission, covering queue
          wait, compute and retries; [None] (default) disables it *)
  retries : int;
      (** transient retry attempts after the first try, each after a
          backoff of [1 ms * 2^n] with full jitter seeded by (request id,
          attempt), capped at 50 ms; 2 *)
}

val default_policy : policy

type response = {
  request : request;
  result : (Overgen_scheduler.Schedule.t list, error) result;
  cache_hit : bool;
  service_s : float;  (** processing time, excluding queue wait *)
}

type t

val create :
  ?mode:mode ->
  ?caching:bool ->
  ?cache:Cache.t ->
  ?policy:policy ->
  Registry.t ->
  t
(** [mode] defaults to [Deterministic]; [caching:false] disables the
    schedule cache entirely (every request runs the scheduler — the cold
    baseline); [cache] supplies a shared cache instance instead of the
    default fresh memory-only 1024-entry one — the way to make the cache
    durable ({!Cache.create}[ ~store]); [policy] defaults to
    {!default_policy}.
    Under [Workers n] the domains are spawned immediately. *)

(** One admitted request on its way through {!dispatch}. *)
type job = {
  req : request;
  admitted_at : float;
      (** [Unix.gettimeofday] at admission: queue wait and deadlines
          count from here *)
  k : response -> unit;  (** the completion, called exactly once *)
}

val dispatch : t -> job list -> unit
(** Process a group of requests sequentially as one unit: inline on the
    caller's thread under [Deterministic], as one pool job under
    [Workers] (there [k] runs on a worker domain, so it must be
    thread-safe and quick).  A same-overlay group pays one pool
    round-trip and resolves the registry entry / compile memo once.
    Each job's [k] fires exactly once, in list order, even when some
    requests fail; after {!shutdown} every [k] answers {!Shutdown}. *)

val telemetry : t -> Telemetry.t
val cache : t -> Cache.t option

val memo_entries : t -> int
(** Kernels held compiled (mDFG variant sets) for reuse, keyed on the
    payload's text; bounded by the schedule cache's capacity.
    For tests: the tests check the compile memo stays within its bound. *)

val mode : t -> mode
val policy : t -> policy
(** Introspection for the admission layer: the mode decides how it
    bounds its in-flight window, and the policy's deadline anchors
    tenant deadline classes. *)

val shutdown : t -> unit
(** Stop and join the worker domains ([Workers] mode).  Idempotent; drain
    the admission layer in front first.  Re-raises an exception that
    escaped a completion [k] ({!Overgen_par.Pool.shutdown}). *)
