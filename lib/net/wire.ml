open Overgen_workload
module Codec = Overgen_store.Codec
module Crc32 = Overgen_store.Crc32

(* v5: a compile request carries its kernel only as C source text, so
   every byte a client controls goes through a total decoder; the v4
   marshalled-IR payload tag is rejected.  (v4 added the tenant identity
   and [Quota_exceeded]; v3 payloads + [Source_error]; v2 trace context
   and the ops plane.)  The version byte and the schema tags bump
   together, so an old peer rejects at the header and an old payload
   smuggled past the header rejects at the schema check. *)
let version = 5
let header_bytes = 12
let max_payload_bytes = 16 * 1024 * 1024
let magic0 = 'O'
let magic1 = 'N'

type frame_error =
  | Bad_magic
  | Version_mismatch of int
  | Oversized of int
  | Checksum_mismatch
  | Truncated

let frame_error_to_string = function
  | Bad_magic -> "bad frame magic"
  | Version_mismatch v ->
    Printf.sprintf "wire version mismatch: peer speaks v%d, we speak v%d" v version
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes announced" n
  | Checksum_mismatch -> "frame payload checksum mismatch"
  | Truncated -> "truncated frame"

type header = { length : int; crc : int }

(* One allocation: the header, one blit of the payload, then its CRC. *)
let frame payload =
  let n = String.length payload in
  if n > 0xFFFF_FFFF then invalid_arg "Wire.frame: payload over 4 GiB";
  let b = Bytes.create (header_bytes + n) in
  Bytes.set b 0 magic0;
  Bytes.set b 1 magic1;
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 0;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  Bytes.set_int32_le b 8 (Int32.of_int (Crc32.sub payload 0 n));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(* Header checks are ordered so the most diagnostic error wins: a peer
   speaking a different protocol version still frames with our magic, so
   magic first, then version, then sanity of the announced length. *)
let decode_header_at s pos =
  if String.length s - pos < header_bytes then Error Truncated
  else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then Error Bad_magic
  else
    let v = Char.code s.[pos + 2] in
    if v <> version then Error (Version_mismatch v)
    else
      let length = Int32.to_int (String.get_int32_le s (pos + 4)) land 0xFFFFFFFF in
      if length > max_payload_bytes then Error (Oversized length)
      else Ok { length; crc = Int32.to_int (String.get_int32_le s (pos + 8)) land 0xFFFFFFFF }

let decode_header s = decode_header_at s 0

let verify_payload h payload =
  if String.length payload <> h.length then Error Truncated
  else if Crc32.sub payload 0 h.length <> h.crc then Error Checksum_mismatch
  else Ok ()

(* The CRC is checked in place, before the payload is copied out. *)
let deframe ?(pos = 0) s =
  match decode_header_at s pos with
  | Error e -> Error e
  | Ok h ->
    let off = pos + header_bytes in
    if String.length s - off < h.length then Error Truncated
    else if Crc32.sub s off h.length <> h.crc then
      Error Checksum_mismatch
    else Ok (String.sub s off h.length, header_bytes + h.length)

(* ---------------- messages ---------------- *)

(* What a compile request carries: the pragma'd C source text — the
   shard parses it with the frontend inside the request's fault
   isolation, so a rejected source costs the submitting client nothing
   but a [Source_error].  [Kernel k] is encode-side shorthand for
   [Source (C_source.emit k)]; a decoded request never carries it. *)
type payload = Kernel of Ir.kernel | Source of string

type request = {
  id : int;
  user : string;
  tenant : string;  (* QoS identity; "" = untenanted *)
  overlay : string;
  payload : payload;
  tuned : bool;
  trace : string;
  parent_span : int;
}

type req_msg =
  | Compile of request
  | Ping
  | Stats_req
  | Quiesce
  | Metrics_req
  | Health_req
  | Recent_events_req of { max : int }

type wire_error =
  | Unknown_overlay of string
  | Queue_full
  | Compile_error of string
  | Transient_failure of string
  | Deadline_exceeded
  | Shutting_down
  | Source_error of string
  | Quota_exceeded

let wire_error_to_string = function
  | Unknown_overlay name -> Printf.sprintf "unknown overlay %S" name
  | Queue_full -> "queue full (admission rejected)"
  | Compile_error e -> "compile error: " ^ e
  | Transient_failure e -> "transient failure: " ^ e
  | Deadline_exceeded -> "deadline exceeded"
  | Shutting_down -> "shard is shutting down"
  | Source_error e -> "source error: " ^ e
  | Quota_exceeded -> "tenant quota exceeded (request shed)"

let retryable = function
  | Queue_full | Transient_failure _ | Shutting_down | Deadline_exceeded -> true
  (* a quota shed is a policy verdict: resending would burn the tenant's
     bucket again for the same answer *)
  | Unknown_overlay _ | Compile_error _ | Source_error _ | Quota_exceeded ->
    false

type resp_msg =
  | Result of {
      id : int;
      outcome : (Overgen_scheduler.Schedule.t list, wire_error) result;
      cache_hit : bool;
      service_s : float;
      shard : int;
    }
  | Redirect of { id : int; owner : int }
  | Pong of { shard : int; shards : int }
  | Stats of {
      shard : int;
      served : int;
      hits : int;
      misses : int;
      warm_loaded : int;
    }
  | Bye
  | Metrics_dump of { shard : int; text : string }
  | Health of {
      shard : int;
      quiesced : bool;
      served : int;
      inflight : int;
      warm_loaded : int;
    }
  | Events of { shard : int; events : string list }

let req_schema = "net-req-v5"
let resp_schema = "net-resp-v5"
let schedules_schema = "net-schedules-v1"

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let put_id b id = Codec.put_u64 b (Int64.of_int id)

(* only values [put_id] can write: re-encoding a decoded id is exact *)
let get_id s pos =
  let v = Codec.get_u64 s pos in
  let id = Int64.to_int v in
  if Int64.of_int id <> v then fail "id %Ld out of range" v;
  id

let put_bool b v = Codec.put_u8 b (if v then 1 else 0)

let get_bool s pos =
  match Codec.get_u8 s pos with
  | 0 -> false
  | 1 -> true
  | n -> fail "bad boolean byte %d" n

let source_text = function Kernel k -> C_source.emit k | Source src -> src

let encode_req msg =
  let b = Buffer.create 256 in
  Codec.put_string b req_schema;
  (match msg with
  | Compile r ->
    Codec.put_u8 b 0;
    put_id b r.id;
    Codec.put_string b r.user;
    Codec.put_string b r.tenant;
    Codec.put_string b r.overlay;
    put_bool b r.tuned;
    Codec.put_string b r.trace;
    put_id b r.parent_span;
    (* tag 1: tag 0 was the v4 marshalled-IR payload *)
    Codec.put_u8 b 1;
    Codec.put_string b (source_text r.payload)
  | Ping -> Codec.put_u8 b 1
  | Stats_req -> Codec.put_u8 b 2
  | Quiesce -> Codec.put_u8 b 3
  | Metrics_req -> Codec.put_u8 b 4
  | Health_req -> Codec.put_u8 b 5
  | Recent_events_req { max } ->
    Codec.put_u8 b 6;
    Codec.put_u32 b max);
  Buffer.contents b

let decode_req s =
  match
    let pos = ref 0 in
    let schema = Codec.get_string s pos in
    if schema <> req_schema then fail "request schema is %S, reader wants %S" schema req_schema;
    let msg =
      match Codec.get_u8 s pos with
      | 0 ->
        let id = get_id s pos in
        let user = Codec.get_string s pos in
        let tenant = Codec.get_string s pos in
        let overlay = Codec.get_string s pos in
        let tuned = get_bool s pos in
        let trace = Codec.get_string s pos in
        let parent_span = get_id s pos in
        let payload =
          match Codec.get_u8 s pos with
          | 1 -> Source (Codec.get_string s pos)
          | n -> fail "unknown payload tag %d" n
        in
        Compile { id; user; tenant; overlay; payload; tuned; trace; parent_span }
      | 1 -> Ping
      | 2 -> Stats_req
      | 3 -> Quiesce
      | 4 -> Metrics_req
      | 5 -> Health_req
      | 6 -> Recent_events_req { max = Codec.get_u32 s pos }
      | n -> fail "unknown request tag %d" n
    in
    if !pos <> String.length s then fail "trailing bytes after request";
    msg
  with
  | msg -> Ok msg
  | exception Bad m -> Error m
  | exception Codec.Truncated -> Error "truncated request envelope"

let put_error b = function
  | Unknown_overlay name ->
    Codec.put_u8 b 1;
    Codec.put_string b name
  | Queue_full -> Codec.put_u8 b 2
  | Compile_error e ->
    Codec.put_u8 b 3;
    Codec.put_string b e
  | Transient_failure e ->
    Codec.put_u8 b 4;
    Codec.put_string b e
  | Deadline_exceeded -> Codec.put_u8 b 5
  | Shutting_down -> Codec.put_u8 b 6
  | Source_error e ->
    Codec.put_u8 b 7;
    Codec.put_string b e
  | Quota_exceeded -> Codec.put_u8 b 8

let get_error s pos =
  match Codec.get_u8 s pos with
  | 1 -> Unknown_overlay (Codec.get_string s pos)
  | 2 -> Queue_full
  | 3 -> Compile_error (Codec.get_string s pos)
  | 4 -> Transient_failure (Codec.get_string s pos)
  | 5 -> Deadline_exceeded
  | 6 -> Shutting_down
  | 7 -> Source_error (Codec.get_string s pos)
  | 8 -> Quota_exceeded
  | n -> fail "unknown error tag %d" n

let encode_resp msg =
  let b = Buffer.create 256 in
  Codec.put_string b resp_schema;
  (match msg with
  | Result r ->
    Codec.put_u8 b 0;
    put_id b r.id;
    put_bool b r.cache_hit;
    Codec.put_f64 b r.service_s;
    Codec.put_u32 b r.shard;
    (match r.outcome with
    | Ok schedules ->
      Codec.put_u8 b 0;
      Codec.put_string b (Codec.encode_marshal ~schema:schedules_schema schedules)
    | Error e -> put_error b e)
  | Redirect r ->
    Codec.put_u8 b 1;
    put_id b r.id;
    Codec.put_u32 b r.owner
  | Pong p ->
    Codec.put_u8 b 2;
    Codec.put_u32 b p.shard;
    Codec.put_u32 b p.shards
  | Stats st ->
    Codec.put_u8 b 3;
    Codec.put_u32 b st.shard;
    put_id b st.served;
    put_id b st.hits;
    put_id b st.misses;
    put_id b st.warm_loaded
  | Bye -> Codec.put_u8 b 4
  | Metrics_dump m ->
    Codec.put_u8 b 5;
    Codec.put_u32 b m.shard;
    Codec.put_string b m.text
  | Health h ->
    Codec.put_u8 b 6;
    Codec.put_u32 b h.shard;
    put_bool b h.quiesced;
    put_id b h.served;
    put_id b h.inflight;
    put_id b h.warm_loaded
  | Events e ->
    Codec.put_u8 b 7;
    Codec.put_u32 b e.shard;
    Codec.put_u32 b (List.length e.events);
    List.iter (Codec.put_string b) e.events);
  Buffer.contents b

let decode_resp s =
  match
    let pos = ref 0 in
    let schema = Codec.get_string s pos in
    if schema <> resp_schema then
      fail "response schema is %S, reader wants %S" schema resp_schema;
    let msg =
      match Codec.get_u8 s pos with
      | 0 ->
        let id = get_id s pos in
        let cache_hit = get_bool s pos in
        let service_s = Codec.get_f64 s pos in
        let shard = Codec.get_u32 s pos in
        let outcome =
          match Codec.get_u8 s pos with
          | 0 -> (
            let blob = Codec.get_string s pos in
            match
              (Codec.decode_marshal ~schema:schedules_schema blob
                : (Overgen_scheduler.Schedule.t list, string) result)
            with
            | Ok schedules -> Ok schedules
            | Error e -> fail "schedules blob: %s" e)
          | tag ->
            pos := !pos - 1;
            ignore tag;
            Error (get_error s pos)
        in
        Result { id; outcome; cache_hit; service_s; shard }
      | 1 ->
        let id = get_id s pos in
        let owner = Codec.get_u32 s pos in
        Redirect { id; owner }
      | 2 ->
        let shard = Codec.get_u32 s pos in
        let shards = Codec.get_u32 s pos in
        Pong { shard; shards }
      | 3 ->
        let shard = Codec.get_u32 s pos in
        let served = get_id s pos in
        let hits = get_id s pos in
        let misses = get_id s pos in
        let warm_loaded = get_id s pos in
        Stats { shard; served; hits; misses; warm_loaded }
      | 4 -> Bye
      | 5 ->
        let shard = Codec.get_u32 s pos in
        let text = Codec.get_string s pos in
        Metrics_dump { shard; text }
      | 6 ->
        let shard = Codec.get_u32 s pos in
        let quiesced = get_bool s pos in
        let served = get_id s pos in
        let inflight = get_id s pos in
        let warm_loaded = get_id s pos in
        Health { shard; quiesced; served; inflight; warm_loaded }
      | 7 ->
        let shard = Codec.get_u32 s pos in
        let n = Codec.get_u32 s pos in
        if n > 1_000_000 then fail "events list announces %d entries" n;
        let events = ref [] in
        for _ = 1 to n do
          events := Codec.get_string s pos :: !events
        done;
        Events { shard; events = List.rev !events }
      | n -> fail "unknown response tag %d" n
    in
    if !pos <> String.length s then fail "trailing bytes after response";
    msg
  with
  | msg -> Ok msg
  | exception Bad m -> Error m
  | exception Codec.Truncated -> Error "truncated response envelope"

(* The routing key deliberately avoids the registry fingerprint and the
   mDFG content hash: a client can compute it from the request alone, yet
   it determines both (the overlay name resolves to one fingerprint on
   every shard, the source digest to one variant hash), so the cache
   keyspace is partitioned consistently with the schedule-cache keys. *)
let route_key ~overlay ~payload ~tuned =
  let b = Buffer.create 64 in
  Codec.put_string b overlay;
  Codec.put_string b (Digest.string (source_text payload));
  put_bool b tuned;
  Buffer.contents b
