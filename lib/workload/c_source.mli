(** Emission of compilable C sources with the OverGen pragmas.

    The paper's programming interface is "multithreaded C with pragmas"
    (Section III-A); this module renders each IR kernel back into exactly
    that artifact — a self-contained C translation unit with
    [#pragma dsa config] / [#pragma dsa decouple] around the offloaded
    regions, array definitions and a reference [main].  Useful for
    inspecting what the flow consumes, for cross-checking the IR against
    a host C compiler — and, since the emission carries the kernel's full
    metadata ([#pragma dsa kernel ...], per-region [region(...)]/
    [hls(...)] attributes, an [OG_TRI] dependent bound for triangular
    loops and a [#pragma dsa tune]-marked [_tuned] variant function), as
    the exact dialect {!module:Overgen_frontend} parses back into a
    structurally equal {!Ir.kernel}. *)

val emit : ?tuned:bool -> Ir.kernel -> string
(** The full translation unit.  With [~tuned:false] (default) the tuned
    regions, if any, are emitted as a second [<name>_kernel_tuned]
    function behind a [#pragma dsa tune desc(...)] marker; with
    [~tuned:true] they replace the main function's regions (the legacy
    single-function rendering). *)

val fn_name : Ir.kernel -> string
(** The C identifier of the kernel function ('-' mapped to '_'). *)

