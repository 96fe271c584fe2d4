(** Functional execution: does the compiled mDFG compute what the source
    loop nest computes?

    The paper verifies "functional completeness as a full system with RISC-V
    binaries on RTL cycle-level using Synopsys VCS" before FPGA runs.  The
    analog here: a golden interpreter executes the region's loop nest
    directly over concrete arrays, and a decoupled interpreter replays the
    compiled variant — streams deliver port lanes, the DFG fires once per
    unrolled block, accumulators and recurrences carry state — and the final
    array contents must match.

    This catches real compiler bugs: broken lane substitution, bad CSE,
    wrong accumulator initialization, mis-ordered output lanes. *)

open Overgen_workload

type env
(** Concrete array storage: one float array per program array. *)

val make_env : ?seed:int -> Ir.kernel -> env
(** Random data for every kernel array.  Index arrays referenced by indirect
    accesses are filled with valid indices into their target arrays.
    For tests: with {!copy_env}, {!run_reference} and {!max_abs_diff}, the
    pieces of {!check} that tests recombine to show the checker is not
    vacuous. *)

val copy_env : env -> env
(** For tests: see {!make_env}. *)

val run_reference : env -> Ir.kernel -> Ir.region -> unit
(** Execute the loop nest directly (the golden model).  Triangular trip
    counts run to their maximum bound, consistently with the analyses.
    For tests: see {!make_env}. *)

val max_abs_diff : env -> env -> float
(** Largest per-element difference across all arrays.
    For tests: see {!make_env}. *)

val check : ?seed:int -> ?unroll:int -> ?tuned:bool -> Ir.kernel -> (unit, string) result
(** End-to-end equivalence check of one kernel at one unrolling degree:
    compile every region, run both interpreters, compare within a relative
    tolerance. *)
