(** Small numeric helpers used across the framework. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geomean : float list -> float
(** Geometric mean of strictly positive values; 0 for the empty list.
    @raise Invalid_argument if any value is <= 0. *)

val median : float list -> float
(** Median; 0 for the empty list. *)

val percentile : p:float -> float list -> float
(** [percentile ~p l] is the p-th percentile of [l] (linear interpolation
    between closest ranks); 0 for the empty list.
    For tests: the one-percentile reference implementation that tests check
    {!percentiles} against.
    @raise Invalid_argument unless [0 <= p <= 100]. *)

val percentiles : float array -> float list -> float list
(** [percentiles data ps] computes every percentile in [ps] of [data]
    with a single sort ([data] itself is not mutated); prefer this over
    repeated {!percentile} calls.  Each result is 0 for empty [data].
    @raise Invalid_argument unless every p satisfies [0 <= p <= 100]. *)

val clamp : lo:float -> hi:float -> float -> float
val clamp_int : lo:int -> hi:int -> int -> int

val div_ceil : int -> int -> int
(** Integer division rounding up. *)
