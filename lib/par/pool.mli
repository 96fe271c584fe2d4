(** A generic OCaml 5 domain worker pool with a bounded job queue.

    Extracted from the compile service so every parallel subsystem — the
    service's request processing and the DSE's island annealers — runs on
    one implementation of queueing, backpressure and domain lifecycle.

    Two modes:
    - [Deterministic]: no domains are spawned.  Jobs accepted by {!submit}
      wait in the queue until {!drain} runs them FIFO on the caller's
      thread, and {!map} applies the function sequentially in list order.
      Exactly reproducible; what the tests use.
    - [Domains n]: [n] OCaml 5 domains consume the shared queue
      concurrently.  Job order of {e completion} is unspecified, but
      {!map} always returns results in input order.

    Admission is bounded: {!submit} rejects with [Saturated] once
    [queue_capacity] jobs are waiting (backpressure).  {!map} instead
    blocks until space frees up, so arbitrarily large batches complete. *)

type mode = Deterministic | Domains of int

type t

type error =
  | Saturated  (** the bounded queue is full; admission rejected *)
  | Stopped    (** the pool was shut down *)

val create : ?queue_capacity:int -> mode -> t
(** [queue_capacity] defaults to 1024 pending jobs.  Under [Domains n] the
    worker domains are spawned immediately.
    @raise Invalid_argument if [queue_capacity < 1] or [Domains n] with
    [n < 1]. *)

val mode : t -> mode

val workers : t -> int
(** Concurrency width: [n] for [Domains n], [1] for [Deterministic]. *)

val submit : t -> (unit -> unit) -> (unit, error) result
(** Non-blocking admission of one job.  A job that raises does not kill
    its worker: every such exception is held and surfaced by the next
    {!drain} (which re-raises the earliest) or {!drain_all} (which
    returns them all). *)

val pending : t -> int
(** Jobs accepted but not yet completed (queued or running). *)

val drain : t -> unit
(** [Deterministic]: run every queued job FIFO on the caller's thread
    (including jobs those jobs enqueue).  [Domains]: block until every
    accepted job has completed.  Re-raises the exception of the earliest
    submitted job that failed, if any, discarding the rest — use {!drain_all} to recover
    every failure. *)

val drain_all : t -> exn list
(** Like {!drain}, but never raises: completes every accepted job and
    returns all held job exceptions in submission order (empty when every
    job succeeded).  Clears the failure list. *)

val failures : t -> exn list
(** Take (and clear) the job exceptions recorded so far, in submission
    order, without draining. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element and return the results in input order.
    Every element is attempted even if an earlier one raises; if any
    raised, the exception of the {e earliest element in input order} is
    re-raised (deterministic across modes).  [Domains]: one job per
    element, blocking (not rejecting) on a full queue, then a barrier.
    Failures of [f] are confined to the call — they are never mixed into
    the pool-level failure list seen by {!drain}. *)

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but total: each element's outcome is surfaced in place as
    [Ok y] or [Error exn], in input order, and nothing is re-raised. *)

val shutdown : t -> unit
(** Stop accepting jobs and join the worker domains.  Idempotent.  Jobs
    still queued are discarded; call {!drain} first to complete them. *)
