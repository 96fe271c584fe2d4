(** A small persistent directed graph over integer node ids with arbitrary
    node payloads.  Used for both the architecture description graph and the
    dataflow graphs; multi-edges are not allowed. *)

type 'a t

val empty : 'a t
val add_node : 'a t -> int -> 'a -> 'a t
(** Adds or replaces the node. *)

val remove_node : 'a t -> int -> 'a t
(** Removes the node and all incident edges; no-op if absent. *)

val add_edge : 'a t -> int -> int -> 'a t
(** @raise Invalid_argument if either endpoint is absent or on a self loop. *)

val remove_edge : 'a t -> int -> int -> 'a t
val mem : 'a t -> int -> bool
val mem_edge : 'a t -> int -> int -> bool
val find : 'a t -> int -> 'a option
val find_exn : 'a t -> int -> 'a
val set_node : 'a t -> int -> 'a -> 'a t
(** Replace the payload of an existing node.  @raise Invalid_argument if absent. *)

val succs : 'a t -> int -> int list
(** Successor ids in increasing order; [] if absent. *)

val preds : 'a t -> int -> int list

val out_degree : 'a t -> int -> int
(** [List.length (succs t id)], without the list. *)

val in_degree : 'a t -> int -> int
(** [List.length (preds t id)], without the list. *)

val iter_with_succs :
  'a t -> node:(int -> 'a -> unit) -> succ:(int -> unit) -> unit
(** Every node in increasing id order: [node id x], then [succ s] for each
    of its successors in increasing order.  One walk, no lists. *)

val nodes : 'a t -> (int * 'a) list
(** All nodes in increasing id order. *)

val edges : 'a t -> (int * int) list
val node_count : 'a t -> int
val edge_count : 'a t -> int
val max_id : 'a t -> int
(** Largest node id, or -1 when empty; O(log n). *)
