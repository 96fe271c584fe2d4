(** Flight recorder: a fixed-size, domain-safe ring buffer of structured
    events — the always-on black box the ops plane and post-mortems read.

    Unlike {!Span} recording, the recorder is {e not} gated by {!Control}:
    crash forensics must not depend on tracing having been enabled in
    advance.  Each event carries a level, a monotonic timestamp (seconds
    since the recorder's creation), the current trace id (from
    {!Span.current_trace} unless overridden) and key/value attributes.
    The ring bounds memory; events recorded with [~pin:true] (store
    recoveries, drains, panics) are additionally kept in a small separate
    list so a flood of routine events cannot evict them. *)

type level = Debug | Info | Warn | Error

type event = {
  seq : int;                      (** 0-based; total order of recording *)
  t_s : float;                    (** seconds since the recorder epoch *)
  level : level;
  trace : string;                 (** "" when recorded outside any trace *)
  name : string;
  attrs : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh recorder.  [capacity] (default 512) bounds the ring; up to 64
    pinned events survive past it.
    For tests: production records into {!default}; tests use private recorders
    so they do not share it.
    @raise Invalid_argument if < 1. *)

val default : t
(** The process-wide recorder every subsystem records into. *)

val record :
  ?level:level ->
  ?trace:string ->
  ?attrs:(string * string) list ->
  ?pin:bool ->
  t ->
  string ->
  unit
(** [record t name] appends an event.  [trace] defaults to the calling
    domain's current trace context; [level] to [Info].  [~pin:true] marks
    the event as evict-proof (lifecycle milestones, not bulk traffic). *)

val recent : ?max:int -> t -> event list
(** Snapshot, oldest first: the ring's live events plus any pinned events
    the ring has overwritten, deduplicated by [seq].  [max] keeps only the
    newest [max]. *)

val count : t -> int
(** Total events ever recorded (including those the ring evicted).
    For tests: the only reader of the sequence counter; tests check eviction
    and concurrent recording lose no events. *)

val clear : t -> unit

val event_json : event -> string
(** One event as a single-line JSON object. *)

val write_dump : path:string -> t -> unit
(** Write {!recent} to [path] (truncating) as JSONL, one {!event_json}
    per line. *)
