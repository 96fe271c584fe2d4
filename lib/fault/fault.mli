(** Deterministic, seeded fault injection.

    Subsystems mark their failure-prone operations with named {e fault
    points} ({!point}).  Disarmed — the default — a fault point costs one
    atomic load and a branch and never raises.  Armed with a {!config}, a
    visit to a fault point raises {!Injected} according to a plan that is a
    pure function of (seed, point name, per-point visit index): replaying
    a scenario with the same seed injects the same faults at the same
    visit indices no matter how worker domains interleave, which is what
    makes failure behaviour testable ([bench/main.exe fault],
    [overgen serve-bench --faults]).

    Faults come in two kinds mirroring the service's failure taxonomy:
    [Transient] faults model flaky infrastructure (worth retrying, never
    cached) and [Deterministic] faults model input-determined failures
    (cacheable, pointless to retry). *)

type kind = Transient | Deterministic

exception Injected of { point : string; kind : kind }

type config = {
  seed : int;  (** plan seed; same seed, same injections *)
  rate : float;  (** injection probability per fault-point visit, in [0,1] *)
  transient_fraction : float;
      (** fraction of injected faults that are [Transient], in [0,1] *)
  points : string list;  (** enabled point names; [[]] enables every point *)
}

val default_config : config
(** seed 1, rate 0.2, all faults transient, every point enabled. *)

(** The canonical fault-point names threaded through the pipeline. *)
module Points : sig
  val mdfg_compile : string  (** kernel → mDFG variant compilation *)

  val scheduler_schedule_app : string  (** spatial scheduling of an app *)

  val oracle_synth : string  (** FPGA synthesis oracle *)

  val cache_store : string  (** schedule-cache store of a computed outcome *)

  val service_process : string  (** per-request service processing *)

  val store_append : string
  (** artifact-store record append, visited before any byte is written *)

  val store_torn : string
  (** artifact-store write completion, visited after the record header is
      on disk: a [Transient] injection models a torn write (the payload is
      cut short), a [Deterministic] injection models bit rot (the full
      record lands with a flipped payload byte, so the checksum fails) *)

  val net_frame_corrupt : string
  (** network server frame decode, visited before a received frame is
      parsed: an injection makes the server treat the frame as corrupt —
      the connection is closed with a counted error, exactly as for a
      genuine CRC mismatch *)

  val net_conn_drop : string
  (** network server request handling, visited after a compile request is
      read but before any response is written: an injection drops the
      whole connection, modeling a client that must retry over a fresh
      connection *)

  val all : string list
  (** For tests: every named point, so tests can visit them all while
      disarmed. *)
end

val arm : config -> unit
(** Start injecting.  @raise Invalid_argument on a rate or fraction
    outside [0, 1]. *)

val disarm : unit -> unit
(** Stop injecting (the default state). *)

val armed : unit -> bool
(** For tests: the only reader of the arm state; tests check that
    {!with_faults} restores it and that a rejected {!arm} leaves it off. *)

val point : string -> unit
(** Visit a named fault point: no-op when disarmed, raises {!Injected}
    when the armed plan fires for this visit.  Thread-safe. *)

val would_inject : config -> string -> int -> kind option
(** The pure injection plan: what [point] does on the [n]-th visit (from
    0) of a point under [cfg].  Exposed so tests and drivers can predict
    and count injections without raising.
    For tests: the tests predict which requests a seeded fault plan hits. *)

val is_transient : exn -> bool
(** [true] exactly for [Injected {kind = Transient; _}]. *)

val describe : exn -> string
(** Human-readable rendering; falls back to {!Printexc.to_string}. *)

val stats : unit -> (string * int * int) list
(** Per-point (name, visits, injections) since the last
    {!reset_stats}, sorted by name.  Counted only while armed. *)

val reset_stats : unit -> unit

val with_faults : config -> (unit -> 'a) -> 'a
(** [with_faults cfg f]: arm, reset stats, run [f], and disarm even if
    [f] raises. *)
