(** A generic OCaml 5 domain worker pool.

    Extracted from the compile service so every parallel subsystem — the
    service's request processing, the DSE's island annealers and model
    training — runs on one implementation of job dispatch and domain
    lifecycle.

    Two modes:
    - [Deterministic]: no domains are spawned.  {!submit} runs the job
      inline on the caller's thread and {!map} applies the function
      sequentially in list order.  Exactly reproducible; what the tests
      use.
    - [Domains n]: [n] OCaml 5 domains take jobs from one FIFO queue
      concurrently.  Job order of {e completion} is unspecified, but
      {!map} always returns results in input order.

    A {!map} caller helps: while its jobs are outstanding it takes queued
    jobs (its own or anyone else's) and runs them itself, and sleeps only
    when the queue is empty.  So during a map, [Domains n] runs on [n]
    workers plus the caller, and a map issued from inside a job (islands
    mapping their apps, say) cannot deadlock, even on [Domains 1].

    The queue is unbounded: callers bound what they hand in (the compile
    service sits behind an admission window). *)

type mode = Deterministic | Domains of int

type t

type error = Stopped  (** the pool was shut down *)

val create : mode -> t
(** Under [Domains n] the worker domains are spawned immediately.
    @raise Invalid_argument for [Domains n] with [n < 1]. *)

val submit : t -> (unit -> unit) -> (unit, error) result
(** Hand one job to the pool: run inline under [Deterministic], queued for
    a worker under [Domains].  A job that raises does not kill its worker
    and does not reach the submitter: the first such exception is kept and
    re-raised by {!shutdown}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element and return the results in input order.
    Every element is attempted even if an earlier one raises; if any
    raised, the exception of the {e earliest element in input order} is
    re-raised (deterministic across modes).  [Domains]: one job per
    element; until exactly those jobs are done the caller runs queued
    jobs itself, so nested maps are safe.  Failures of [f] are
    confined to the call — they never reach {!shutdown}.
    @raise Invalid_argument under [Domains] after {!shutdown}. *)

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but total: each element's outcome is surfaced in place as
    [Ok y] or [Error exn], in input order, and nothing is re-raised.
    For tests: {!map} is built on it, and the tests check each slot's
    failure here, where {!map} re-raises only the first. *)

val shutdown : t -> unit
(** Stop accepting jobs and join the worker domains; jobs still queued
    are discarded.  Then re-raise the first exception a {!submit}ted job
    raised, if any.  Idempotent: a later call neither joins nor raises
    again. *)
