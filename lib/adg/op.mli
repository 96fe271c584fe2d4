(** Functional-unit operations.

    A processing element advertises a set of [(op, dtype)] capability pairs;
    the spatial scheduler may only place an instruction on a PE whose
    capability set contains the instruction's pair. *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Sqrt
  | Min
  | Max
  | Abs
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Cmp_lt
  | Cmp_eq
  | Select
  | Acc  (** accumulating add with an internal register (reduction) *)

val all : t list
val to_string : t -> string
val of_string : string -> t option
val compare : t -> t -> int

val arity : t -> int
(** Number of operands (Select is ternary, Abs/Sqrt/Acc unary-ish). *)

val arith_class : t -> [ `Simple | `Mul | `Div | `Sqrt ]
(** Hardware cost/latency class of the operation. *)

val latency : t -> Dtype.t -> int
(** Pipeline latency of this op on this datatype. *)

val is_mul : t -> bool
val is_add : t -> bool
val is_div : t -> bool

(** Capability sets: sets of [(op, dtype)] pairs, the one encoding of a
    pair in the repo.  A pair's {e key} is dense and op-major, and every
    walk over a set ([elements], [iter], [fold], [to_string]) visits pairs
    in ascending key order, which is declaration order of the ops, then of
    the dtypes. *)
module Cap : sig
  type op := t

  type t
  (** Immutable; equal sets are structurally equal. *)

  val n_keys : int
  (** 102: every op times every dtype. *)

  val key : op -> Dtype.t -> int
  (** [key op dt] is in [0, n_keys): the op's position in {!all} times the
      number of dtypes, plus the dtype's position in {!Dtype.all}. *)

  val empty : t
  val add : op * Dtype.t -> t -> t
  val remove : op * Dtype.t -> t -> t
  val of_list : (op * Dtype.t) list -> t

  val of_ops : op list -> Dtype.t list -> t
  (** Cartesian product of ops and types. *)

  val inter : t -> t -> t

  val supports : t -> op -> Dtype.t -> bool
  (** A bit test; allocates nothing. *)

  val is_empty : t -> bool
  val cardinal : t -> int
  val elements : t -> (op * Dtype.t) list
  val exists : (op * Dtype.t -> bool) -> t -> bool
  val iter : (op * Dtype.t -> unit) -> t -> unit
  val fold : (op * Dtype.t -> 'a -> 'a) -> t -> 'a -> 'a

  val to_string : t -> string
  (** ["add.i64,mul.i64"]: the pairs in key order. *)

  val opcode : t -> op -> Dtype.t -> int
  (** The PE opcode that selects the pair: its rank among the set's pairs
      in key order.  Raises [Invalid_argument] when the set lacks it. *)

  val opcode_bits : t -> int
  (** Width of a PE's opcode field: [max 1 (ceil (log2 (max 2 cardinal)))]. *)
end
