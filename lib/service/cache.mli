(** The content-addressed schedule cache.

    Keys are content addresses: a sysADG structural fingerprint
    ({!Overgen_adg.Serial.fingerprint}) joined with an mDFG content hash
    ({!Overgen_mdfg.Compile.hash_compiled}).  Values are scheduling
    outcomes with a typed failure taxonomy:
    - [Ok schedules] and {e deterministic} errors (a kernel that cannot
      map onto an overlay) are properties of the inputs and are cached —
      negative caching stops the scheduler re-running on every retry of an
      unmappable kernel;
    - {e transient} failures (injected faults, flaky infrastructure) are
      {b never} stored, so one hiccup cannot poison a key forever: the
      next request recomputes.

    {b Durability.}  Backed by an {!Overgen_store.Store} the cache
    writes every cacheable outcome through to disk and reads through to
    it on a memory miss, so entries evicted from the bounded LRU — or
    computed by a previous process — are still served (and promoted back
    into memory).  A fresh cache on an existing store warm-starts its
    LRU from the persisted bindings.  The taxonomy carries over exactly:
    deterministic negatives persist, transient failures never reach
    disk.

    Capacity is bounded with LRU eviction.  All operations are
    thread-safe; {!find_or_compute} additionally coalesces concurrent
    requests for the same key so the spatial scheduler runs at most once
    per key no matter how many workers race on it — which also makes
    hit/miss totals identical between the deterministic and parallel
    service modes.  If the computing thread raises, the key's pending
    mark is cleared and the blocked waiters recompute instead of
    deadlocking. *)

open Overgen_scheduler

type failure = { reason : string; transient : bool }

type outcome = (Schedule.t list, failure) result

val deterministic : string -> failure
(** An input-determined failure: cacheable. *)

type t

val default_capacity : int
(** 1024 entries. *)

val create : ?capacity:int -> ?store:Overgen_store.Store.t -> unit -> t
(** [capacity] defaults to {!default_capacity}.  With [store], the LRU is
    warm-started from the persisted bindings (most recently written =
    most recently used, capacity applies) and all later traffic writes
    and reads through.  Bindings persisted under an older codec schema
    are skipped, not misparsed. *)

val warm_loaded : t -> int
(** Entries replayed from the store at {!create}. *)

val store_reads : t -> int
(** Memory misses served from the backing store since {!create}.
    For tests: the only observable of a hit served from disk; tests check warm
    restarts read each record once. *)

val key : fingerprint:string -> variant_hash:string -> string
(** The content address of one (overlay structure, compiled application)
    scheduling problem: [<n>:<fingerprint><m>:<variant_hash>].  Length
    prefixes mean no two distinct input pairs share a key, whatever bytes
    the hashes contain. *)

val find_or_compute : t -> string -> (unit -> outcome) -> outcome * bool
(** [find_or_compute t key compute] returns the cached outcome (flag
    [true]) or runs [compute], stores its outcome if {!cacheable} and
    returns it (flag [false]).  If another thread is already computing
    [key], blocks until that computation resolves and returns its outcome
    as a hit.  An exception from [compute] propagates to the caller after
    clearing the key's pending mark (waiters then recompute); nothing is
    stored.  Visits the [cache.store] fault point before storing. *)

val purge_fingerprint : t -> fingerprint:string -> int
(** Drop every outcome keyed under [fingerprint] — the retire path's
    orphan guard: from the in-memory LRU and, when a store is attached,
    from the durable log (so a later [Store.compact] actually reclaims
    the bytes and a warm restart cannot resurrect records no registered
    overlay can address).  Length-prefixed keys make the prefix match
    exact — no other fingerprint can be swept up.  Returns the number of
    records purged.  Only call when no registered overlay still aliases
    the fingerprint ({!Registry.find_fingerprint}). *)

val purge_fingerprint_store : Overgen_store.Store.t -> fingerprint:string -> int
(** The durable half of {!purge_fingerprint} alone, for retiring against
    a store with no live cache instance (e.g. CLI surgery on a stopped
    service). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val stats : t -> stats

val hit_rate : stats -> float
(** hits / (hits + misses); 0 when empty. *)
