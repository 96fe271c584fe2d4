(** Span exporters: Chrome trace-event JSON and JSONL.

    {!to_chrome} produces a document loadable by [chrome://tracing] /
    Perfetto: one complete ("ph":"X") event per span, microsecond
    timestamps, the recording domain as the thread id, attributes (plus
    the span/parent ids) under ["args"].  {!to_jsonl} emits one
    self-contained JSON object per line, convenient for [jq] pipelines.

    {!validate_json} is a dependency-free well-formedness check: the CLI
    runs every emitted trace through it before writing. *)

val escape : string -> string
(** JSON string-content escaping (quotes, backslash, control chars). *)

val to_chrome : Span.span list -> string

val to_jsonl : ?pid:int -> Span.span list -> string
(** One span per line; each line carries the process id (default 1) so a
    merge can reconstruct process lanes without side information. *)

val merge_chrome :
  ?names:(int * string) list -> (int * Span.span) list -> string
(** Stitch spans from several processes into one Chrome trace document:
    each span keeps its originating pid, and a ["process_name"] metadata
    event labels every pid (from [names], default ["process <pid>"]). *)

val orphans : (int * Span.span) list -> (int * int) list
(** Parent ids referenced but never recorded, judged {e per process}
    (span ids are per-process counters): deduplicated [(pid, parent_id)]
    pairs.  Empty on a well-formed trace. *)

(** {2 JSON value parsing} — dependency-free reader for the JSONL span
    files shards write. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Exactly one JSON value (RFC 8259; [\u] escapes decode to UTF-8),
    surrounding whitespace allowed.  Object members keep document
    order.
    For tests: the net tests read a JSON flight-recorder event back. *)

val validate_json : string -> (unit, string) result
(** {!parse_json} with the value discarded: [Ok ()] iff the whole string
    is exactly one valid JSON value. *)

val member : string -> json -> json option
(** The first member named [k] of an object; [None] for a missing key
    or a non-object.
    For tests: see {!parse_json}. *)

val parse_jsonl : string -> ((int * Span.span) list, string) result
(** Read back a {!to_jsonl} document: one [(pid, span)] per non-blank
    line.  Missing [pid]/[trace]/[domain] fields default (old files stay
    readable); any malformed line fails the whole parse. *)

val write_file : path:string -> string -> unit
(** Write contents to [path] (truncating). *)
