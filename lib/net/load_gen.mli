(** Open-loop load generator for a shard cluster.

    Requests arrive on a fixed schedule — request [i] at [t0 + i/rate] —
    regardless of how fast the cluster answers, so queueing delay shows
    up in the latency percentiles instead of silently throttling the
    offered load (the coordinated-omission trap a closed loop falls
    into).

    One sender thread per shard owns one connection and the slice of the
    request array whose {!Wire.route_key} the {!Shard_map} ring
    assigns to that shard.  The thread reconnects with backoff when the
    shard drops (resending everything that was in flight on the lost
    connection), re-enqueues retryable errors ([Shutting_down],
    [Transient_failure], [Queue_full]) after a short pause, and hands
    [Redirect]ed requests to the owner shard's thread — so a shard
    killed and restarted mid-run costs latency, never answers.

    Latency is measured from the request's {e scheduled} arrival to its
    completion.  The headline percentiles ([p50/p90/p99/mean]) cover
    only requests answered on their first send; requests that had to be
    resent (lost connection, retryable error) carry reconnect/backoff
    waits and are reported separately through [resend_p99_ms] — mixing
    the two would let a handful of reconnect storms swamp the steady
    -state tail.  [max_ms] still spans everything.

    When a request carries a non-empty {!Wire.request.trace} and the
    observability gate is on, each send is wrapped in a [client_send]
    span whose id travels as the request's [parent_span], linking the
    client's timeline to the server's. *)

type config = {
  cluster : Node.peer array;   (** shard endpoints, index = shard id *)
  requests : Wire.request array;
      (** the trace; ids are overwritten with the array index *)
  rate : float;                (** offered load, requests/second *)
  timeout_s : float;           (** give-up bound on the whole run *)
  misroute_every : int option;
      (** [Some k]: send every [k]-th request to the wrong shard
          (owner + 1), exercising the server's redirect path that a
          correctly-routing client never hits.  [None]: route
          everything to its ring owner. *)
}

type summary = {
  requests : int;
  completed : int;   (** got a final answer before [timeout_s] *)
  ok : int;
  failed : int;      (** deterministic errors: final, not retried *)
  hits : int;        (** completions served from a shard's cache *)
  redirects : int;
  reconnects : int;
  resends : int;     (** individual re-send events *)
  resent_requests : int;
      (** distinct completed requests that were resent at least once *)
  wall_s : float;
  goodput_rps : float;  (** ok / wall_s *)
  mean_ms : float;   (** first-send completions only *)
  p50_ms : float;    (** first-send completions only *)
  p90_ms : float;    (** first-send completions only *)
  p99_ms : float;    (** first-send completions only *)
  max_ms : float;    (** worst completion overall, resends included *)
  resend_p99_ms : float;
      (** p99 over resent completions; 0 when nothing was resent *)
}

val of_trace :
  ?trace:(unit -> string) ->
  Overgen_service.Service.request list ->
  Wire.request array
(** A service trace as wire requests.  Each distinct kernel is emitted
    as C source once, here, instead of on every encode and route of its
    [Kernel] shorthand.  [trace] draws each request's trace id, in trace
    order (default: untraced). *)

val run : config -> summary

val report : summary -> string
(** One-screen text report. *)
