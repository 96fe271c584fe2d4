(** Deficit round-robin: the weighted-fair queue in front of the worker
    pool.

    Per-tenant FIFOs with unit cost per request.  Backlogged tenants are
    served [weight] requests per ring round, so over any backlogged
    interval tenant [i]'s share of dequeued items converges to
    [weight_i / sum weights] with error bounded by one round — and a
    weight-1 tenant can never be starved by a saturating heavyweight:
    every round serves it at least once.  Work-conserving:
    {!dequeue_batch} returns an item whenever {!length} is positive.

    Not thread-safe; [Admission] owns the lock. *)

type 'a t

val create : unit -> 'a t

val add_tenant : 'a t -> id:string -> weight:int -> unit
(** Idempotent for an identical weight.
    @raise Invalid_argument on weight < 1 or a conflicting
    re-registration. *)

val enqueue : 'a t -> id:string -> 'a -> unit
(** Append to the tenant's FIFO.
    @raise Invalid_argument on an unregistered tenant. *)

val length : 'a t -> int
(** Total queued items across tenants. *)

val dequeue_batch : 'a t -> max:int -> same:('a -> 'a -> bool) -> 'a list
(** The next items under DRR order: up to [max] {e consecutive} items from
    the selected tenant's FIFO while [same first item] holds and the
    tenant's deficit lasts — the same-overlay batching hook: one dequeue
    round yields a group of requests sharing an ADG fingerprint, and the
    deficit bound keeps batching from distorting fairness (a batch never
    exceeds the credit a round would have granted anyway).  Empty only
    when the queue is empty.
    @raise Invalid_argument if [max < 1]. *)
