(** System-level parameters of a generated overlay SoC (paper Section III-B):
    number of tiles, crossbar-NoC bandwidth, shared L2 banking/capacity, and
    DRAM channels.  Explored exhaustively by the nested system DSE. *)

(** NoC topology between tiles and L2 banks.  The paper uses a crossbar and
    names topology specialization as future work; the ring is that
    extension: far cheaper in LUTs, but bisection-limited. *)
type noc_topology = Crossbar | Ring

type t = {
  tiles : int;          (** homogeneous tiles (control core + accelerator) *)
  noc_bytes : int;      (** NoC link bandwidth, bytes per cycle *)
  noc_topology : noc_topology;
  l2_banks : int;       (** number of L2 banks (controls L2 bandwidth) *)
  l2_kb : int;          (** total shared L2 capacity, KiB *)
  dram_channels : int;  (** DRAM channels (1 on the FPGA; 2/4 in RTL sim) *)
}

val default : t
(** The paper's base system: 512 KiB inclusive L2, single DRAM channel. *)

val dram_bytes_per_cycle : t -> int
(** Aggregate DRAM bandwidth at the overlay clock, bytes per cycle. *)

val l2_bytes_per_cycle : t -> int
(** Aggregate L2 bandwidth: banks x bank width. *)

val shared_bandwidth : t -> int
(** Aggregate tile<->L2 bandwidth the topology can sustain: all links for a
    crossbar, the bisection for a ring. *)

val candidates : ?topologies:noc_topology list -> unit -> t list
(** The exhaustive system design space enumerated inside each spatial-DSE
    iteration (Section V-A): tiles in 1..16, banks, NoC widths, L2 sizes.
    Topologies default to the paper's crossbar only. *)

val describe : t -> string
