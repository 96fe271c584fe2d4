(** Dataflow graphs of compute instructions between vector ports.

    A DFG is the compute slice of one program region after unrolling and
    common-subexpression elimination: input vector ports deliver operand
    lanes, instruction nodes compute, output ports collect result lanes
    (paper Figure 2(b)).  Nodes are numbered so that every operand points to
    a lower id, which makes the graph acyclic by construction. *)

open Overgen_adg

type operand = { src : int; lane : int }

type kind =
  | Inst of { op : Op.t; dtype : Dtype.t; acc : bool }
      (** [acc] marks a self-accumulating reduction (internal register) *)
  | Const of { value : float; name : string option }
      (** literal or named scalar parameter, held in a PE constant register *)
  | Input of { width_bytes : int; stated : bool }
      (** vector input port; [stated] ports carry loop-dimension metadata *)
  | Output of { width_bytes : int }

type node = { id : int; kind : kind; operands : operand list }

type t

val nodes : t -> node list
val node : t -> int -> node
val size : t -> int

val inputs : t -> node list
val outputs : t -> node list
val inst_count : t -> int

val op_histogram : t -> (Op.t * int) list
(** Instruction histogram, sorted by operation. *)

val depth : t -> int
(** Critical path length in pipeline cycles, using per-op latencies; the
    datapath's concurrency capacity for recurrence fitting. *)

val validate : t -> (unit, string) result
(** Operand ids must be smaller than the node id (acyclicity), instructions
    must have the right arity, outputs must not be read.
    For tests: the structural validator the compiler and frontend tests check
    every built DFG against. *)

(** Imperative builder with hash-consing: emitting the same instruction with
    the same operands twice returns the first id (CSE). *)
module Builder : sig
  type dfg := t
  type t

  val create : unit -> t
  val input : t -> width_bytes:int -> stated:bool -> int
  val output : t -> width_bytes:int -> operand list -> int
  val const : t -> ?name:string -> float -> int
  (** CSE'd on (value, name). *)

  val inst : t -> Op.t -> Dtype.t -> ?acc:bool -> operand list -> int
  (** CSE'd on (op, dtype, acc, operands). *)

  val finish : t -> dfg
end
