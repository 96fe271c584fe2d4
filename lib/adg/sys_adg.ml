type t = { adg : Adg.t; system : System.t }

let make adg system = { adg; system }
let with_system t system = { t with system }
let with_adg t adg = { t with adg }

let describe t =
  let s = Adg.stats t.adg in
  Printf.sprintf "%s; accel: %d PEs, %d switches (avg radix %.2f)"
    (System.describe t.system) s.n_pe s.n_switch s.avg_radix

let config_bits t =
  let adg = t.adg in
  let switch_bits =
    List.fold_left
      (fun acc (sw, c) ->
        match c with
        | Comp.Switch { width_bits } ->
          let radix = Adg.switch_radix adg sw in
          let sel = max 1 (int_of_float (ceil (Float.log2 (float_of_int (max 2 radix))))) in
          (* subword lanes route independently on wide switches *)
          let lanes = max 1 (width_bits / 64) in
          acc + (radix * sel * lanes)
        | _ -> acc)
      0 (Adg.nodes adg)
  in
  let pe_bits =
    List.fold_left
      (fun acc (_, (pe : Comp.pe)) ->
        let opcode = Op.Cap.opcode_bits pe.caps in
        let delay = 3 * 8 (* three operands, 8-bit delay-FIFO setting *) in
        let pred = if pe.predication then 64 else 8 in
        let consts = pe.const_regs * pe.width_bits in
        acc + opcode + delay + pred + consts)
      0 (Adg.pes adg)
  in
  (* each port holds a full stream template: base/stride/length per
     dimension, padding and state flags *)
  let port_bits =
    (List.length (Adg.in_ports adg) + List.length (Adg.out_ports adg)) * 256
  in
  (* per-engine stream-register defaults *)
  let engine_bits = List.length (Adg.engines adg) * 192 in
  (* configuration frames carry addressing/CRC overhead per row *)
  let payload = switch_bits + pe_bits + port_bits + engine_bits in
  payload * 3 / 2

let reconfigure_cycles t =
  (* The bitstream is fetched through the D-cache at 8 bytes/cycle, then
     shifted into the computing substrate one 64-bit frame per region per
     cycle (Section VI-B); add drain/settle overhead. *)
  let bytes = (config_bits t + 7) / 8 in
  (bytes / 8) + (bytes / 4) + 128
