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

(** Capability sets: sets of [(op, dtype)] pairs. *)
module Cap : sig
  type op := t

  include Set.S with type elt = op * Dtype.t

  val of_ops : op list -> Dtype.t list -> t
  (** Cartesian product of ops and types. *)

  val supports : t -> op -> Dtype.t -> bool

  val to_string : t -> string
end
