(** Structural Verilog emission for a generated overlay (paper Figure 3:
    "System-level ADG + RTL").

    The real OverGen lowers the chosen sysADG through Chisel generators from
    DSAGEN and Chipyard; here we emit self-contained structural Verilog-2001
    with the same module hierarchy: one module per component class
    (parameterized PE, switch, vector port, stream engine, dispatcher), one
    tile module wiring them along the ADG edges, and a top-level that
    replicates tiles behind the NoC/L2 stubs.  The output is meant for
    inspection and downstream synthesis experiments, and is checked
    structurally by the test suite. *)

open Overgen_adg

type rtl = {
  modules : (string * string) list;  (** (module name, Verilog text) *)
  top : string;                      (** top-level module name *)
}

val emit : Sys_adg.t -> rtl
(** Generate the full design. *)

val to_string : rtl -> string
(** Concatenate all modules into one Verilog source. *)

val module_count : rtl -> int
