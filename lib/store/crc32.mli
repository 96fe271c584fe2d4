(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    Every record in the artifact store carries the CRC of its payload so
    torn writes and bit rot are detected at scan time instead of being
    misparsed.  The wire frames of the network tier carry the same CRC,
    so every served request pays it four times.  Sliced by 8: eight
    256-entry tables of native ints fold eight bytes per step from two
    little-endian 32-bit reads, and the 0-7 bytes after the last step go
    one at a time; nothing is allocated but the boxed result. *)

val string : ?off:int -> ?len:int -> string -> int32
(** CRC of [len] bytes of [s] starting at [off]; defaults cover the whole
    string.  [string "123456789" = 0xCBF43926l].
    @raise Invalid_argument when the range is not inside [s]. *)
