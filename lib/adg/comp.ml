type pe = {
  caps : Op.Cap.t;
  width_bits : int;
  delay_fifo : int;
  const_regs : int;
  predication : bool;
}

type port = {
  width_bytes : int;
  fifo_depth : int;
  padding : bool;
  stated : bool;
}

type engine_kind = Dma | Spad | Rec | Gen | Reg

type engine = {
  kind : engine_kind;
  bandwidth : int;
  capacity : int;
  indirect : bool;
  max_dims : int;
}

type t =
  | Pe of pe
  | Switch of { width_bits : int }
  | In_port of port
  | Out_port of port
  | Engine of engine

let engine_kind_to_string = function
  | Dma -> "dma"
  | Spad -> "spad"
  | Rec -> "rec"
  | Gen -> "gen"
  | Reg -> "reg"

let kind_name = function
  | Pe _ -> "pe"
  | Switch _ -> "sw"
  | In_port _ -> "ip"
  | Out_port _ -> "op"
  | Engine e -> engine_kind_to_string e.kind

let describe = function
  | Pe pe ->
    Printf.sprintf "pe[%db, fifo=%d, %d caps]" pe.width_bits pe.delay_fifo
      (Op.Cap.cardinal pe.caps)
  | Switch s -> Printf.sprintf "sw[%db]" s.width_bits
  | In_port p -> Printf.sprintf "ip[%dB%s]" p.width_bytes (if p.stated then ",st" else "")
  | Out_port p -> Printf.sprintf "op[%dB]" p.width_bytes
  | Engine e ->
    Printf.sprintf "%s[bw=%dB%s%s]"
      (engine_kind_to_string e.kind)
      e.bandwidth
      (if e.capacity > 0 then Printf.sprintf ",cap=%dB" e.capacity else "")
      (if e.indirect then ",ind" else "")

let default_pe caps =
  { caps; width_bits = 64; delay_fifo = 16; const_regs = 2; predication = false }

let default_port ~width_bytes =
  { width_bytes; fifo_depth = 16; padding = false; stated = false }

let default_engine kind =
  match kind with
  | Dma -> { kind; bandwidth = 32; capacity = 0; indirect = false; max_dims = 3 }
  | Spad -> { kind; bandwidth = 32; capacity = 32 * 1024; indirect = false; max_dims = 3 }
  | Rec -> { kind; bandwidth = 16; capacity = 0; indirect = false; max_dims = 1 }
  | Gen -> { kind; bandwidth = 16; capacity = 0; indirect = false; max_dims = 3 }
  | Reg -> { kind; bandwidth = 8; capacity = 0; indirect = false; max_dims = 1 }

