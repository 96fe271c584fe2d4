type noc_topology = Crossbar | Ring

type t = {
  tiles : int;
  noc_bytes : int;
  noc_topology : noc_topology;
  l2_banks : int;
  l2_kb : int;
  dram_channels : int;
}

let default =
  { tiles = 4; noc_bytes = 32; noc_topology = Crossbar; l2_banks = 4;
    l2_kb = 512; dram_channels = 1 }

(* One DDR4 channel's effective bandwidth (~9.6 GB/s after efficiency),
   expressed at the ~100MHz overlay clock.  Because bandwidths are absolute,
   a slow-clocked overlay sees proportionally more bytes per cycle — the
   reason overlays stay competitive on memory-bound kernels. *)
let dram_channel_bytes = 96
let dram_bytes_per_cycle t = t.dram_channels * dram_channel_bytes

(* One L2 bank is a 256-bit TileLink slave. *)
let l2_bank_bytes = 32
let l2_bytes_per_cycle t = t.l2_banks * l2_bank_bytes

let shared_bandwidth t =
  match t.noc_topology with
  | Crossbar -> t.tiles * t.noc_bytes
  | Ring -> 4 * t.noc_bytes (* two bidirectional bisection links *)

let candidates ?(topologies = [ Crossbar ]) () =
  let tiles = [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 12; 13; 14; 15; 16 ] in
  let nocs = [ 16; 32; 64 ] in
  let banks = [ 2; 4; 8; 16 ] in
  let l2s = [ 256; 512; 1024 ] in
  List.concat_map
    (fun noc_topology ->
      List.concat_map
        (fun tiles ->
          List.concat_map
            (fun noc_bytes ->
              List.concat_map
                (fun l2_banks ->
                  List.map
                    (fun l2_kb ->
                      { tiles; noc_bytes; noc_topology; l2_banks; l2_kb;
                        dram_channels = 1 })
                    l2s)
                banks)
            nocs)
        tiles)
    topologies

let describe t =
  Printf.sprintf "%d tiles, %s NoC %dB/cyc, L2 %dKB x%d banks, %d DRAM ch"
    t.tiles
    (match t.noc_topology with Crossbar -> "xbar" | Ring -> "ring")
    t.noc_bytes t.l2_kb t.l2_banks t.dram_channels
