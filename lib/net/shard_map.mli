(** Consistent hashing of the cache keyspace across shards.

    Each shard contributes 64 virtual points to a ring of 64-bit FNV-1a
    hash values; a key is owned by the shard of the first point at or
    after the key's hash, wrapping at the top.  The map is pure data
    computed from the shard count alone — every client and server that
    agrees on it agrees on every key's owner, with no coordination. *)

type t

val make : shards:int -> t
(** Build the ring for shards [0 .. shards-1].
    @raise Invalid_argument when [shards < 1]. *)

val owner : t -> string -> int
(** The shard owning a key — total, deterministic, O(log(shards * 64)). *)
