(** Deterministic, splittable pseudo-random number generator.

    All stochastic components of the framework (the annealer, the synthesis
    oracle's variation, MLP weight initialization) draw from values of type
    {!t} seeded explicitly, so every experiment is reproducible.  The
    implementation is SplitMix64, which supports cheap independent substreams
    via {!split}. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val of_string : string -> t
(** [of_string s] seeds a generator from the hash of [s]; used to derive a
    stable stream per experiment name. *)

val split : t -> t
(** [split t] returns a new generator statistically independent from the
    future output of [t].  [t] itself advances.
    For tests: the tests check the split stream is independent of its parent. *)

val state : t -> int64
(** The full internal state (SplitMix64 is a single 64-bit counter); with
    {!of_state} this checkpoints a stream mid-run. *)

val of_state : int64 -> t
(** Resurrect a generator from {!state}: the draw sequence continues
    exactly where the captured generator's would. *)

val streams : int -> int -> t list
(** [streams seed n] derives [n] independent generators for parallel
    workers.  Stream 0 is {e exactly} [create seed] — a single-stream run
    reproduces the sequential draw sequence bit for bit — and streams
    1..n-1 are {!split} off a private master in index order, so the list
    is deterministic in [seed] and [n].  @raise Invalid_argument if
    [n < 1]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal deviate. *)

val choose : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  @raise Invalid_argument on []. *)

val choose_weighted : t -> (float * 'a) list -> 'a
(** Choice proportional to the non-negative weights.  @raise Invalid_argument
    if the list is empty or all weights are zero. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform random permutation. *)

val shuffle_in_place : t -> 'a array -> unit
(** Permute the array in place with exactly the draws {!shuffle} makes on
    a list of the same length, allocating nothing per element. *)
