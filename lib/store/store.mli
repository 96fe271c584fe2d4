(** The durable artifact store: a crash-safe, content-addressed on-disk
    key/value log.

    One store file persists every expensive artifact the serving system
    would otherwise recompute after a restart: schedule-cache outcomes,
    registered overlays, DSE checkpoints.  The design is a classic
    append-only record log with an in-memory index:

    {v
    +--------------------+
    | header: magic + v  |   "overgen-store v1\n"
    +--------------------+
    | u32 payload length |-+
    | u32 CRC32(payload) | |  one record
    | payload bytes      |-+
    +--------------------+
    | ...                |
    v}

    where each payload is a {!Codec}-framed binding: a Put
    (namespace, key, value) or a Delete (namespace, key).  Within a
    namespace the {e last} record for a key wins, so an overwrite is just
    another append — no in-place mutation, which is what makes the format
    crash-safe.

    {b Recovery.}  Opening scans the log and rebuilds the index.  A torn
    or checksum-corrupt record ends the scan: everything before it is
    kept, the damaged tail is truncated from the file, and the loss is
    reported in {!last_open_stats} — a crash mid-append never makes a
    store unopenable, it only loses the record being written.  A header
    from a different format version is rejected outright (never
    misparsed).

    {b Compaction.}  Appends accumulate dead bytes (overwritten and
    deleted bindings).  {!compact} rewrites the live bindings to a
    temporary file and atomically renames it over the log, so a crash
    during compaction leaves either the old or the new file, both valid.

    {b Durability.}  Appends go through the OS page cache; {!sync},
    {!compact} and {!close} force them to stable storage — the Obs
    counters [overgen_store_appends/fsyncs_total] track the cost.

    All operations are thread-safe (one internal mutex); worker domains
    write through the schedule cache concurrently. *)

type t

type open_stats = {
  records : int;        (** intact records scanned at open *)
  live : int;           (** live bindings after replay (last-wins) *)
  truncated_bytes : int;
      (** damaged tail bytes dropped by recovery; 0 for a clean log *)
}

val open_ : path:string -> unit -> (t, string) result
(** Open or create the store at [path], scanning the log into memory.
    Errors are structural: an unreadable file or an incompatible header
    version.  Damaged tails are {e not} errors — they are truncated and
    counted in {!last_open_stats}. *)

val last_open_stats : t -> open_stats

val path : t -> string

val put : t -> ns:string -> key:string -> string -> unit
(** Append a binding.  Visits the [store.append] fault point before
    writing and [store.torn_write] mid-record (an injection there leaves
    a torn or corrupt record on disk, exactly like a crash); on any
    append failure the dirty tail is rewound before the next append so
    one failed write cannot shadow later ones. *)

val get : t -> ns:string -> key:string -> string option
(** Read a binding back {e from disk} (the index holds only offsets); a
    checksum mismatch on read raises [Failure] — it means the file
    changed underneath us. *)

val delete : t -> ns:string -> key:string -> unit

val bindings : t -> ns:string -> (string * string) list
(** Live bindings of a namespace in write order (rewriting a key moves
    it to the end) — replaying them into an LRU makes the most recently
    written binding the most recently used. *)

val namespaces : t -> (string * int) list
(** [(namespace, live bindings)], sorted by name. *)

val length : t -> int
(** Live bindings across all namespaces. *)

val file_bytes : t -> int
val live_bytes : t -> int
(** Bytes occupied by live records; [file_bytes - live_bytes] is what
    {!compact} reclaims. *)

val compact : t -> unit
(** Rewrite live bindings and atomically swap the log.  Also rewinds any
    dirty tail left by a failed append. *)

val sync : t -> unit
val close : t -> unit
(** Flush and close.  Using a closed store raises [Failure]. *)

type verify_error = { offset : int; reason : string; intact_records : int }

val verify : path:string -> (open_stats, verify_error) result
(** Read-only integrity scan, for CI/ops health checks: walks every
    record without repairing anything and reports the byte offset and
    cause of the first damaged record.  [Error] also covers a missing
    file or an incompatible header (offset 0). *)
