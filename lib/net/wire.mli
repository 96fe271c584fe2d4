(** The binary wire protocol of the networked serving tier.

    Two layers, both built on the {!Overgen_store.Codec} primitives the
    durable store already uses (little-endian length-prefixed fields,
    schema-tagged payloads):

    {b Framing.}  Every message travels as one frame:

    {v
    +----+----+--------+--------+----------------+----------------+
    | 'O'| 'N'| version|  zero  | u32 LE length  | u32 LE CRC-32  |
    +----+----+--------+--------+----------------+----------------+
    | payload bytes (length of them, CRC-32 of them)              |
    +-------------------------------------------------------------+
    v}

    The version byte is part of the header: a frame from a different
    protocol version is {e rejected} ([Version_mismatch]), never
    misparsed.  A wrong magic, an oversized length or a CRC mismatch are
    likewise typed errors — the server closes the connection with a
    counted error on any of them, mirroring the store's scan-on-open
    discipline (damage is detected and contained, not interpreted).

    {b Messages.}  Payloads are schema-tagged ([net-req-v5] /
    [net-resp-v5]) envelopes whose fields are Codec primitives.  A
    request is client-controlled bytes, so it decodes through total
    readers only: the kernel travels as pragma'd C source text, parsed
    on the shard by {!Overgen_frontend.Frontend.parse}, and a value
    {!decode_req} accepts re-encodes to exactly the bytes it came from.
    The schedules of a successful response come from the server the
    client chose to trust and ride as one {!Overgen_store.Codec}
    marshal-encoded, schema-tagged string.

    v5 dropped the marshalled-IR request payload: a compile request
    carries only source text, and the old payload tag is rejected.  (v4
    added the tenant identity and [Quota_exceeded]; v3 the source
    payload and [Source_error]; v2 the trace context and the ops-plane
    kinds.)  Each bump moves the version byte and both envelope schemas
    together, so older frames reject at the header and older payloads at
    the schema check — never a silent misparse. *)

open Overgen_workload

val version : int
(** Wire protocol version, byte 2 of every frame header.
    For tests: the tests forge frames from another protocol version. *)

val header_bytes : int
(** Frame header size: 12. *)

val max_payload_bytes : int
(** Upper bound on a frame payload (16 MiB); a header announcing more is
    rejected as [Oversized] without allocating.
    For tests: the tests forge a header one byte past the cap. *)

type frame_error =
  | Bad_magic
  | Version_mismatch of int  (** the peer's version byte *)
  | Oversized of int         (** announced payload length *)
  | Checksum_mismatch
  | Truncated                (** frame cut short (torn write / short read) *)

val frame_error_to_string : frame_error -> string

type header = { length : int; crc : int }
(** A frame's payload length and the payload's CRC-32 ({!Overgen_store.Crc32.sub}). *)

val frame : string -> string
(** Wrap a payload into a complete frame: one allocation of
    [header_bytes + length], the payload copied in once.
    @raise Invalid_argument for a payload of 4 GiB or more. *)

val decode_header : string -> (header, frame_error) result
(** Parse exactly the first {!header_bytes} bytes of a frame.  [Truncated]
    if fewer bytes are supplied. *)

val verify_payload : header -> string -> (unit, frame_error) result
(** Check a received payload against its header's length and CRC. *)

val deframe : ?pos:int -> string -> (string * int, frame_error) result
(** Whole-buffer convenience (tests, buffered readers): parse one frame
    starting at [pos] (default 0) and return (payload, bytes consumed).
    [Truncated] when the buffer holds only a frame prefix.  The CRC is
    checked in place; the payload is copied out only once it passes. *)

(** {2 Messages} *)

(** What a compile request carries: pragma'd C source text the shard
    parses with {!Overgen_frontend.Frontend} inside the request's fault
    isolation.  [Kernel k] is encode-side shorthand for
    [Source (C_source.emit k)]: it encodes and routes exactly as that
    source does, and {!decode_req} never returns it. *)
type payload = Kernel of Ir.kernel | Source of string

type request = {
  id : int;           (** client-chosen; the server namespaces it
                          per-connection before processing *)
  user : string;
  tenant : string;
      (** the tenant (QoS identity) this request bills to: quota
          metering, weighted-fair share and deadline class on the
          serving shard, plus per-tenant telemetry labels.  [""] rides
          as untenanted (default SLA). *)
  overlay : string;   (** registry name to compile against *)
  payload : payload;
  tuned : bool;
  trace : string;
      (** 128-bit distributed-trace id (32 hex chars), carried verbatim
          across redirects so one request is one trace; [""]
          when the client does not trace *)
  parent_span : int;
      (** the client-side span the server's spans hang under, recorded as
          a [remote_parent] attribute (span ids are per-process) *)
}

type req_msg =
  | Compile of request
  | Ping
  | Stats_req
  | Quiesce  (** ask the node to stop admitting and drain (graceful stop) *)
  | Metrics_req      (** full Prometheus text exposition of the shard *)
  | Health_req       (** liveness + load snapshot, cheap enough to poll *)
  | Recent_events_req of { max : int }
      (** newest [max] flight-recorder events as JSONL lines *)

(** Request outcome as it travels back; mirrors {!Service.error} plus the
    server-side [Shutting_down] answer new requests get during drain. *)
type wire_error =
  | Unknown_overlay of string
  | Queue_full
  | Compile_error of string
  | Transient_failure of string
  | Deadline_exceeded
  | Shutting_down
  | Source_error of string
      (** the frontend rejected a [Source] payload: deterministic,
          located as "line:col: message" *)
  | Quota_exceeded
      (** the tenant's token bucket was empty at admission:
          deterministic, never retried *)

val wire_error_to_string : wire_error -> string

val retryable : wire_error -> bool
(** Whether a client should retry: everything except the deterministic
    verdicts ([Unknown_overlay], [Compile_error], [Source_error],
    [Quota_exceeded] — resending a quota shed would burn the tenant's
    bucket again for the same answer). *)

type resp_msg =
  | Result of {
      id : int;
      outcome : (Overgen_scheduler.Schedule.t list, wire_error) result;
      cache_hit : bool;
      service_s : float;
      shard : int;  (** which shard computed/served it *)
    }
  | Redirect of { id : int; owner : int }
      (** this shard does not own the request's key; re-send to [owner] *)
  | Pong of { shard : int; shards : int }
  | Stats of {
      shard : int;
      served : int;
      hits : int;
      misses : int;
      warm_loaded : int;  (** cache entries replayed from the durable store *)
    }
  | Bye  (** acknowledges [Quiesce] *)
  | Metrics_dump of { shard : int; text : string }
      (** the shard's registries rendered as Prometheus text *)
  | Health of {
      shard : int;
      quiesced : bool;
      served : int;      (** compile requests admitted since boot *)
      inflight : int;    (** admitted but not yet answered *)
      warm_loaded : int; (** cache entries replayed from the store *)
    }
  | Events of { shard : int; events : string list }
      (** flight-recorder events, oldest first, one JSON object each *)

val encode_req : req_msg -> string
val decode_req : string -> (req_msg, string) result
val encode_resp : resp_msg -> string
val decode_resp : string -> (resp_msg, string) result
(** Decoders reject unknown schemas/tags and truncated envelopes with
    [Error], never a garbage value. *)

val route_key : overlay:string -> payload:payload -> tuned:bool -> string
(** The consistent-hash routing key of a compile request: a
    length-prefixed join of the overlay name, the digest of the source
    text and the tuned flag.  Client and server compute it identically,
    and [Kernel k] keys exactly as [Source (C_source.emit k)], so a given
    (overlay, kernel, tuned) triple always lands on one shard — the
    shard whose schedule cache will hold its fingerprint+mDFG-hash
    entry. *)
