(** Domain-safe metrics registry: named counters, gauges and fixed-bucket
    histograms.

    All updates are lock-free ([Atomic]) or CAS-retried, so any number of
    {!Overgen_par.Pool} worker domains may hammer one metric concurrently
    and a quiescent snapshot is exact.  Metric creation is get-or-create:
    asking a registry twice for the same (name, labels) pair returns the
    same underlying metric, so modules can declare their instruments at
    load time without coordination.

    Rendering is deterministic (metrics sorted by name, then labels):
    {!render_report} gives a one-screen text report, {!render_prometheus}
    a Prometheus-style exposition dump. *)

type registry

val create_registry : ?label:string -> unit -> registry
(** A fresh, empty registry.  [label] heads the text report. *)

val default : registry
(** The process-wide registry that the compile pipeline's built-in
    instrumentation (scheduler, simulator, DSE, core compile phases)
    registers into; dumped by the CLI's [--metrics-out]. *)

(** {2 Counters} — monotone integers. *)

type counter

val counter :
  ?help:string -> ?labels:(string * string) list -> registry -> string -> counter
(** Get or create.  @raise Invalid_argument if the (name, labels) pair is
    already registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** Atomic add; [by] defaults to 1. *)

val counter_value : counter -> int

(** {2 Gauges} — last-write-wins floats. *)

type gauge

val gauge :
  ?help:string -> ?labels:(string * string) list -> registry -> string -> gauge

val set : gauge -> float -> unit
val gauge_value : gauge -> float
(** For tests: the only direct reader of a gauge; production reads gauges
    through {!render}. *)

(** {2 Histograms} — fixed upper-bound buckets plus an exact sum/count. *)

type histogram

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  registry ->
  string ->
  histogram
(** [buckets] are strictly increasing upper bounds; an implicit +infinity
    bucket is always appended.  Defaults to {!default_buckets}. *)

val observe : histogram -> float -> unit

type histogram_snapshot = {
  h_buckets : (float * int) array;
      (** (upper bound, cumulative count ≤ bound); last bound is
          [infinity] so its count equals [h_count] *)
  h_count : int;
  h_sum : float;
}

val histogram_snapshot : histogram -> histogram_snapshot

val quantile : histogram_snapshot -> float -> float
(** [quantile s q] for [q] in \[0, 1\]: the Prometheus
    [histogram_quantile] rule — find the bucket holding rank [q * count]
    and interpolate linearly inside it (the first bucket's lower bound is
    0; a rank in the overflow bucket gives the last finite bound).  The
    result lies in the bucket that holds the exact quantile's rank; 0 on
    an empty histogram. *)

(** {2 Rendering} *)

val render_report : ?label:string -> registry -> string
(** One-screen human-readable dump of every metric. *)

val render_prometheus : registry -> string
(** Prometheus text exposition format: [# HELP] / [# TYPE] headers,
    [name{label="v"} value] samples, histograms as [_bucket]/[_sum]/
    [_count] series with [le] labels. *)

val reset : registry -> unit
(** Zero every metric (counts, gauge values, histogram buckets).  The
    metrics themselves stay registered.  Only meaningful when no other
    domain is updating concurrently. *)
