(** A bounded map with least-recently-used eviction.

    The backbone of the compile service's schedule cache: O(1) find/add via
    a hash table over an intrusive doubly-linked recency list.  Not
    thread-safe — {!Cache} serializes access. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; promotes the entry to most-recently-used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without promoting.
    For tests: unlike {!find} it does not promote, so tests can check eviction
    order without changing it. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, promoting to most-recently-used; evicts from the
    least-recently-used end until within capacity. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Drop the entry if present (not counted as an eviction); [true] when
    something was removed. *)

val evictions : ('k, 'v) t -> int
(** Total entries evicted over the structure's lifetime. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Entries most-recently-used first. *)
