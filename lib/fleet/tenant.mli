(** The tenant model: who is asking, how much of the service they own,
    and what latency contract they bought.

    A tenant is a service-level identity — many users map onto one tenant
    — with three QoS levers: a {e weight} (the deficit-round-robin share
    {!Drr} enforces under contention), an optional token-bucket {e quota}
    (a hard rate cap: over-quota requests are shed deterministically with
    [Service.Quota_exceeded], never queued, never retried), and a
    {e deadline class} mapped onto the service policy's deadline. *)

type deadline_class =
  | Interactive  (** exactly the policy deadline *)
  | Standard     (** twice the policy deadline *)
  | Batch        (** no deadline: throughput traffic never deadline-sheds *)

type quota = {
  rate_per_s : float;  (** sustained admissions per second *)
  burst : int;         (** bucket capacity: admissions ahead of the rate *)
}

type t = {
  id : string;
  weight : int;  (** relative share under contention; >= 1 *)
  quota : quota option;  (** [None]: unmetered *)
  deadline_class : deadline_class;
}

val make :
  ?weight:int -> ?quota:quota -> ?deadline_class:deadline_class -> string -> t
(** Defaults: weight 1, no quota, [Standard].
    @raise Invalid_argument on an empty id, weight < 1 or negative quota. *)

val deadline_s : policy_deadline_s:float option -> t -> float option
(** The per-request deadline this tenant's class implies, anchored on the
    service policy's deadline ([Service.policy.deadline_s]).  [None] when
    the policy has no deadline (the ladder is inert) or the class is
    [Batch]. *)

val parse : string -> (t list, string) result
(** Parse a CLI fleet spec: comma-separated
    [NAME:WEIGHT[:CLASS][:BURST@RATE]] with the post-weight fields in
    either order — e.g. ["gold:10,silver:3:interactive,free:1:batch:5@0.5"].
    [""] is the empty fleet.  Errors on duplicate names and malformed
    fields. *)

val to_string : t -> string
(** Round-trips through {!parse}. *)
