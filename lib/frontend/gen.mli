(** Seeded generator of random well-typed loop-nest kernels.

    Drives the frontend fuzz loop ({!Fuzz}): every generated kernel is a
    legal input to {!Overgen_workload.C_source.emit} followed by
    {!Frontend.parse} — subscripts stay in bounds over the whole
    iteration space, statements are canonicalized exactly as the parser
    canonicalizes them, and name pools for arrays, parameters and
    reduction targets are disjoint.  All randomness is drawn from an
    explicit {!Overgen_util.Rng} stream, never wall-clock, so a seed
    reproduces its kernel exactly. *)

(** Coverage map over the dialect's grammar productions, to prove the
    generator exercises all of them. *)
module Cov : sig
  type t

  val create : unit -> t

  val missing : t -> string list
  (** Productions never hit so far. *)

  val fraction : t -> float
  (** Covered fraction in [0, 1]. *)
end

val kernel : cov:Cov.t -> Overgen_util.Rng.t -> Overgen_workload.Ir.kernel
(** Draw one random kernel, recording the productions it uses. *)
