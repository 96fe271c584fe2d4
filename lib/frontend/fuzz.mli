(** The frontend fuzz loop.

    Each seed draws a random well-typed kernel from {!Gen}, emits it with
    {!Overgen_workload.C_source.emit}, parses it back with
    {!Frontend.parse} and pushes the result through mDFG compilation,
    spatial scheduling on the general overlay and simulation — optionally
    under the fault harness.  Failing to fit on the fabric and armed
    fault injections are legal outcomes; a parse rejection, a structural
    round-trip mismatch, a returned schedule that fails
    {!Overgen_scheduler.Schedule.validate} against the overlay, or any other
    escaped exception is a violation. *)

type summary = {
  runs : int;
  parsed : int;
  scheduled : int;
  schedule_rejected : int;
  invalid : int;
      (** returned schedules that fail validation; each is also a
          violation *)
  simulated : int;
  injected : int;
  escaped : int;
  violations : int;
  coverage : Gen.Cov.t;
  failures : (int * string) list;
}

val run : ?seeds:int -> ?seed:int -> ?fault_rate:float -> unit -> summary
(** [run ~seeds ~seed ~fault_rate ()] fuzzes [seeds] independent streams
    derived from [seed].  [fault_rate > 0] arms the mDFG-compile and
    scheduler fault points at that per-visit rate. *)

val summary_to_string : summary -> string

val ok : summary -> bool
(** No violations (so no invalid schedules) and no escaped exceptions. *)

val round_trip_suite : unit -> (string * string) list
(** Round-trip every suite kernel through emit -> parse, checking
    structural equality and bit-identical compiled hashes in both tuned
    modes; returns (kernel, problem) for each failure — [[]] is success. *)
