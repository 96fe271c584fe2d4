(** Spatial-mapping bitstreams (paper Figure 3, "Spatial Mapping Bitstream").

    A bitstream is the configuration the control core streams through the
    D-cache into the computing substrate on reconfiguration: per-switch route
    selects, per-PE opcode/constant/delay settings, and per-port stream
    templates, framed into 64-bit words with a trailing checksum. *)

type t

(** A single configuration field: its value and width. *)
type field = { value : int64; bits : int }

val empty : t
val add : t -> field -> t
val fields : t -> field list
(** In emission order. *)

val bit_count : t -> int
(** Total payload bits, before framing.
    For tests: the payload size the packing tests check {!words} against. *)

val words : t -> int64 array
(** The framed bitstream: a header word (magic, field count), the packed
    payload, and a trailing additive checksum word. *)

val verify : int64 array -> bool
(** Check framing: the magic and checksum of a word image.
    For tests: the framing validator tests run on every assembled image, and
    on a corrupted one. *)
