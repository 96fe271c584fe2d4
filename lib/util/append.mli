(** Exact number text appended to a buffer without [Printf].

    A content hash that dumps thousands of numbers (the mDFG dump behind
    the compile-service cache key) pays a few buffer writes per number
    here, where [Printf.bprintf] interprets its format at run time and
    [string_of_int] formats through C and allocates a string. *)

val int : Buffer.t -> int -> unit
(** [int b n] appends exactly [string_of_int n] (["%d"]). *)

val hex_float : Buffer.t -> float -> unit
(** [hex_float b x] appends exactly [Printf.sprintf "%h" x]:
    ["0x1.8p+1"], ["-0x0p+0"], ["0x0.0000000000001p-1022"] for the
    smallest subnormal, ["infinity"], ["-infinity"], ["nan"] (["-nan"]
    with the sign bit set). *)
