(** Scoped span tracing with per-domain buffers.

    {!with_span} times a scope, records its parent (the innermost span
    open {e on the same domain}) and key/value attributes, and appends the
    finished span to a buffer local to the recording domain — no
    cross-domain synchronization on the hot path.  {!spans} merges every
    domain's buffer deterministically: ordered by start time, ties broken
    by span id.

    Recording is gated by {!Control}: with the gate off (the null
    backend, the default) [with_span name f] is [f ()] plus one atomic
    load — no clock read, no allocation. *)

type span = {
  id : int;             (** unique, process-wide; never 0 *)
  parent : int;         (** enclosing span's id, 0 for a root span *)
  trace : string;       (** 128-bit trace id as 32 hex chars, "" when none *)
  name : string;
  attrs : (string * string) list;
  domain : int;         (** id of the domain that recorded the span *)
  start_s : float;      (** seconds since the collector epoch ({!reset}) *)
  dur_s : float;
}

val fresh_trace : Overgen_util.Rng.t -> string
(** Draw a 128-bit trace id (32 lowercase hex chars) from the stream.
    Deterministic in the generator state — never wall-clock or [Random] —
    so replayed runs produce identical ids. *)

val with_trace : string -> (unit -> 'a) -> 'a
(** Run the thunk with the given trace id as this domain's current trace
    context; spans recorded inside carry it, and {!Log} events default to
    it.  [with_trace "" f] is just [f ()].  Unlike {!with_span} this is
    {e not} gated by {!Control} — trace/event correlation works with the
    null backend on. *)

val current_trace : unit -> string
(** This domain's current trace context; [""] when none. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is recorded even if the thunk
    raises.  When recording is disabled this is just [f ()]. *)

val with_parent : int -> (unit -> 'a) -> 'a
(** [with_parent id f] runs [f] as if span [id] were this domain's only
    open span: spans opened in [f] get [id] as their parent, and
    {!current_id} answers [id].  A pool job run with the {!current_id} of
    the code that submitted it thus nests under that span on whichever
    domain it runs.  The domain's own open spans are back when [f]
    returns or raises.  [with_parent 0 f] and, with recording disabled,
    [with_parent id f] are just [f ()]. *)

val with_detached_span :
  trace:string -> ?attrs:(string * string) list -> string -> (int -> 'a) -> 'a
(** [with_detached_span ~trace name f] runs [f id] inside a root span of
    trace [trace] whose id is [id] (0 when recording is disabled).  It
    reads and writes neither this domain's trace context nor its
    open-span stack, and appends the finished span under a lock, so
    threads sharing one domain may each hold one open across a blocking
    call. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost span open on this domain; no-op
    when recording is disabled or no span is open. *)

val current_id : unit -> int
(** Id of the innermost open span on this domain; 0 when none. *)

val spans : unit -> span list
(** Merge all per-domain buffers: sorted by [(start_s, id)]. *)

val count : unit -> int
(** Total recorded spans across all domains. *)

val reset : unit -> unit
(** Drop every recorded span and restart the epoch.  Call only while no
    other domain is recording. *)
