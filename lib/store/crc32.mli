(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    Every record in the artifact store carries the CRC of its payload so
    torn writes and bit rot are detected at scan time instead of being
    misparsed.  The wire frames of the network tier carry the same CRC,
    so every served request pays it four times.  Sliced by 8: eight
    256-entry tables of native ints fold eight bytes per step from two
    little-endian 32-bit reads, and the 0-7 bytes after the last step go
    one at a time. *)

val sub : string -> int -> int -> int
(** [sub s off len] is the CRC of [len] bytes of [s] starting at [off], as
    an unsigned 32-bit value in an [int]; it allocates nothing.  Every
    frame, record and check in the repo goes through it.
    @raise Invalid_argument when the range is not inside [s]. *)

val string : ?off:int -> ?len:int -> string -> int32
(** {!sub} with optional bounds (defaults cover the whole string) and the
    result as an [int32]: [string "123456789" = 0xCBF43926l].
    For tests: the check vectors and the bit-serial property state the
    CRC in this form.
    @raise Invalid_argument when the range is not inside [s]. *)
