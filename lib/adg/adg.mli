(** The Architecture Description Graph (ADG).

    An ADG describes one spatial-accelerator tile: stream engines feed input
    vector ports, operands flow through a network of switches into processing
    elements, and results drain through output ports back into engines
    (paper Figure 2(c) / Figure 4).  The DSE mutates this graph; the spatial
    scheduler maps mDFGs onto it; the FPGA model prices it. *)

type id = int

type t

val empty : t

val add : t -> Comp.t -> t * id
(** Add a component, returning its fresh id. *)

val add_edge : t -> id -> id -> t
(** Add a directed operand link.  @raise Invalid_argument if the link is
    structurally illegal (see {!val:edge_legal}) or an endpoint is missing. *)

val remove_edge : t -> id -> id -> t
val remove_node : t -> id -> t
val set_comp : t -> id -> Comp.t -> t
val comp : t -> id -> Comp.t option
val comp_exn : t -> id -> Comp.t
val mem : t -> id -> bool
val mem_edge : t -> id -> id -> bool
val succs : t -> id -> id list
val preds : t -> id -> id list

val out_degree : t -> id -> int
(** The number of successors, without listing them. *)

val in_degree : t -> id -> int
(** The number of predecessors, without listing them. *)

val iter_with_succs : t -> node:(id -> Comp.t -> unit) -> succ:(id -> unit) -> unit
(** Every node in increasing id order: [node id c], then [succ s] for each
    of its successors in increasing order.  One walk over the graph and no
    lists: the scheduler builds its successor arrays from it. *)

val nodes : t -> (id * Comp.t) list
val edges : t -> (id * id) list

(** Largest live node id, or [-1] when the graph is empty; O(log n).  Ids
    are dense enough that [max_id + 1]-sized arrays make good id-indexed
    tables. *)
val max_id : t -> int

val node_count : t -> int
val edge_count : t -> int
(** Number of links; it lists them all, so O(edges).
    For tests: the mutation tests check that a move changed the graph;
    the scheduler counts links from its own successor arrays. *)

val edge_legal : Comp.t -> Comp.t -> bool
(** Whether a link from the first component kind to the second is allowed by
    the decoupled-spatial template (engine->ip, ip->fabric, fabric->fabric,
    fabric->op, op->engine). *)

val pes : t -> (id * Comp.pe) list
val switches : t -> id list
val in_ports : t -> (id * Comp.port) list
val out_ports : t -> (id * Comp.port) list
val engines : t -> (id * Comp.engine) list
val engines_of_kind : t -> Comp.engine_kind -> (id * Comp.engine) list

val switch_radix : t -> id -> int
(** max(in-degree, out-degree) of a switch; the mux size the FPGA pays for. *)

val avg_switch_radix : t -> float
(** For tests: the topology tests check the general overlay's switch radix,
    which only the resource model reads internally. *)

val is_fabric : Comp.t -> bool
(** PEs and switches: nodes operand routes may pass through. *)

val validate : t -> (unit, string list) result
(** Structural invariants: legal edges only, no dangling ports or engines,
    every PE reachable from some input port and reaching some output port.
    For tests: the structural validator the builder and mutation tests check
    every ADG they produce against. *)

type stats = {
  n_pe : int;
  n_switch : int;
  avg_radix : float;
  int_add : int;            (** PE count supporting integer add *)
  int_mul : int;
  int_div : int;
  flt_add : int;
  flt_mul : int;
  flt_div : int;
  flt_sqrt : int;
  spad_caps : int list;     (** capacity of each scratchpad, bytes *)
  spad_bws : int list;
  spad_indirect : bool list;
  n_gen : int;
  n_rec : int;
  n_reg : int;
  in_port_bw : int;         (** total input-port bandwidth, bytes/cycle *)
  out_port_bw : int;
}

val stats : t -> stats
(** The quantities reported in the paper's Table III. *)

val to_string : t -> string
(** Multi-line dump: one line per node with its edges. *)
