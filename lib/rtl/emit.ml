open Overgen_adg

type rtl = { modules : (string * string) list; top : string }

let buff fmt = Printf.sprintf fmt

(* ------------------------------------------------------------------ *)
(* Leaf modules                                                        *)
(* ------------------------------------------------------------------ *)

let fu_body caps =
  let cases =
    Op.Cap.elements caps
    |> List.map (fun (op, dt) ->
           let expr =
             match op with
             | Op.Add -> "a + b"
             | Op.Sub -> "a - b"
             | Op.Mul -> "a * b"
             | Op.Div -> "b == 0 ? '0 : a / b"
             | Op.Min -> "($signed(a) < $signed(b)) ? a : b"
             | Op.Max -> "($signed(a) > $signed(b)) ? a : b"
             | Op.Abs -> "a[W-1] ? -a : a"
             | Op.Shl -> "a << b[5:0]"
             | Op.Shr -> "a >> b[5:0]"
             | Op.Band -> "a & b"
             | Op.Bor -> "a | b"
             | Op.Bxor -> "a ^ b"
             | Op.Cmp_lt -> "{{(W-1){1'b0}}, $signed(a) < $signed(b)}"
             | Op.Cmp_eq -> "{{(W-1){1'b0}}, a == b}"
             | Op.Select -> "p ? a : b"
             | Op.Sqrt -> "a" (* iterative unit stub: handled by latency *)
             | Op.Acc -> "acc_q + a"
           in
           buff "      %d: fu_result = %s; // %s.%s" (Op.Cap.opcode caps op dt) expr
             (Op.to_string op) (Dtype.to_string dt))
    |> String.concat "\n"
  in
  cases

let pe_module name (pe : Comp.pe) ~fan_in ~fan_out =
  let opw = Op.Cap.opcode_bits pe.caps in
  buff
    {|// Processing element: dedicated instruction, %d-entry delay FIFOs
module %s #(
  parameter W = %d
) (
  input  wire                clk,
  input  wire                rst,
  input  wire [%d:0]         cfg_opcode,
  input  wire [7:0]          cfg_delay_a,
  input  wire [7:0]          cfg_delay_b,
  input  wire                cfg_acc_en,
  input  wire [W-1:0]        cfg_const,
  input  wire [%d*W-1:0]     in_bus,
  input  wire [%d-1:0]       in_valid,
  output wire [%d*W-1:0]     out_bus,
  output wire [%d-1:0]       out_valid
);
  // operand delay FIFOs (shift-register based, as on FPGA SRLs)
  reg [W-1:0] dly_a [0:%d];
  reg [W-1:0] dly_b [0:%d];
  reg [W-1:0] acc_q;
  wire [W-1:0] a = dly_a[cfg_delay_a];
  wire [W-1:0] b = dly_b[cfg_delay_b];
  wire p = b[0];
  reg [W-1:0] fu_result;
  integer i;
  always @(posedge clk) begin
    dly_a[0] <= in_bus[W-1:0];
    dly_b[0] <= in_bus[2*W-1:W];
    for (i = 1; i <= %d; i = i + 1) begin
      dly_a[i] <= dly_a[i-1];
      dly_b[i] <= dly_b[i-1];
    end
    if (rst) acc_q <= '0;
    else if (cfg_acc_en) acc_q <= fu_result;
  end
  always @* begin
    fu_result = '0;
    case (cfg_opcode)
%s
      default: fu_result = '0;
    endcase
  end
  genvar g;
  generate
    for (g = 0; g < %d; g = g + 1) begin : outs
      assign out_bus[(g+1)*W-1:g*W] = fu_result;
      assign out_valid[g] = &in_valid;
    end
  endgenerate
endmodule
|}
    pe.delay_fifo name pe.width_bits (opw - 1) (max 1 fan_in) (max 1 fan_in)
    (max 1 fan_out) (max 1 fan_out) pe.delay_fifo pe.delay_fifo pe.delay_fifo
    (fu_body pe.caps) (max 1 fan_out)

let switch_module name ~width_bits ~fan_in ~fan_out =
  let selw =
    max 1 (int_of_float (ceil (Float.log2 (float_of_int (max 2 fan_in)))))
  in
  buff
    {|// Operand switch: %dx%d crossbar, %d-bit datapath, registered outputs
module %s (
  input  wire                  clk,
  input  wire [%d*%d-1:0]      cfg_route, // per-output input select
  input  wire [%d*%d-1:0]      in_bus,
  input  wire [%d-1:0]         in_valid,
  output reg  [%d*%d-1:0]      out_bus,
  output reg  [%d-1:0]         out_valid
);
  integer o;
  reg [%d-1:0] sel;
  always @(posedge clk) begin
    for (o = 0; o < %d; o = o + 1) begin
      sel = cfg_route[o*%d +: %d];
      out_bus[o*%d +: %d] <= in_bus[sel*%d +: %d];
      out_valid[o] <= in_valid[sel];
    end
  end
endmodule
|}
    fan_in fan_out width_bits name fan_out selw fan_in width_bits fan_in
    fan_out width_bits fan_out selw fan_out selw selw width_bits width_bits
    width_bits width_bits

let port_module name (p : Comp.port) ~dir =
  let dir_comment = match dir with `In -> "input" | `Out -> "output" in
  buff
    {|// %s vector port: %dB wide, %d-deep FIFO%s%s
module %s #(
  parameter W = %d,
  parameter DEPTH = %d
) (
  input  wire         clk,
  input  wire         rst,
  input  wire [W-1:0] enq_data,
  input  wire         enq_valid,
  output wire         enq_ready,
  output wire [W-1:0] deq_data,
  output wire         deq_valid,
  input  wire         deq_ready,
  input  wire         cfg_stated_en,
  output wire         stream_state
);
  reg [W-1:0] mem [0:DEPTH-1];
  reg [$clog2(DEPTH):0] head, tail, count;
  assign enq_ready = count < DEPTH;
  assign deq_valid = count != 0;
  assign deq_data  = mem[head[$clog2(DEPTH)-1:0]];
  assign stream_state = cfg_stated_en & (count == 1);
  always @(posedge clk) begin
    if (rst) begin head <= '0; tail <= '0; count <= '0; end
    else begin
      if (enq_valid && enq_ready) begin
        mem[tail[$clog2(DEPTH)-1:0]] <= enq_data;
        tail <= tail + 1'b1;
      end
      if (deq_valid && deq_ready) head <= head + 1'b1;
      count <= count + (enq_valid && enq_ready) - (deq_valid && deq_ready);
    end
  end
endmodule
|}
    dir_comment p.width_bytes p.fifo_depth
    (if p.padding then ", auto-padding" else "")
    (if p.stated then ", stream-state" else "")
    name (p.width_bytes * 8) (max 2 p.fifo_depth)

let engine_module name (e : Comp.engine) =
  let kind = Comp.engine_kind_to_string e.kind in
  buff
    {|// %s stream engine: %dB/cycle, %dD affine patterns%s%s
// Pipeline: Stream Issue -> Stream Request -> Stream Generation (Fig. 10),
// with the one-hot bypass around the flip-flop stream table (Fig. 11).
module %s #(
  parameter BW = %d,
  parameter TABLE = 8
) (
  input  wire          clk,
  input  wire          rst,
  // stream dispatch bus
  input  wire [127:0]  dispatch_entry,
  input  wire          dispatch_valid,
  output wire          dispatch_ready,
  // memory side
  output reg  [63:0]   mem_addr,
  output reg  [BW*8-1:0] mem_wdata,
  output reg           mem_req,
  output reg           mem_we,
  input  wire          mem_gnt,
  input  wire [BW*8-1:0] mem_rdata,
  input  wire          mem_rvalid,
  // port side
  output wire [BW*8-1:0] port_data,
  output wire          port_valid,
  input  wire          port_ready
);
  // stream table: flip-flop based; the one-hot bypass forwards the updated
  // entry straight to issue when exactly one stream is active
  reg [127:0] table_q [0:TABLE-1];
  reg [TABLE-1:0] valid_q;
  wire one_hot = (valid_q & (valid_q - 1)) == '0 && valid_q != '0;
  reg [127:0] issue_entry;
  reg         issue_valid;
  reg [127:0] bypass_q;
  reg         bypass_valid;
  integer i;
  assign dispatch_ready = ~&valid_q;
  always @(posedge clk) begin
    if (rst) begin valid_q <= '0; issue_valid <= 1'b0; bypass_valid <= 1'b0; end
    else begin
      if (dispatch_valid && dispatch_ready)
        for (i = 0; i < TABLE; i = i + 1)
          if (!valid_q[i]) begin
            table_q[i] <= dispatch_entry;
            valid_q[i] <= 1'b1;
          end
      issue_valid <= |valid_q;
      issue_entry <= bypass_valid && one_hot ? bypass_q : table_q[0];
      // next-state writeback with bypass
      bypass_q <= issue_entry + 128'd1;
      bypass_valid <= issue_valid;
    end
  end
  // stream request: linear / indirect address generation
  always @(posedge clk) begin
    mem_req  <= issue_valid && port_ready;
    mem_we   <= issue_entry[0];
    mem_addr <= issue_entry[95:32];
    mem_wdata <= {BW{8'h5A}};
  end
  // stream generation: responses to the port
  assign port_data  = mem_rdata;
  assign port_valid = mem_rvalid;
endmodule
|}
    kind e.bandwidth e.max_dims
    (if e.indirect then ", indirect (with reorder buffer)" else "")
    (if e.capacity > 0 then buff ", %dKB local store" (e.capacity / 1024) else "")
    name e.bandwidth

let dispatcher_module name ~n_engines ~n_ports =
  buff
    {|// Stream dispatcher (Fig. 9): stream register file, dispatch queue with
// Tomasulo-style scoreboards over ports and engines, and a barrier queue.
module %s #(
  parameter ENGINES = %d,
  parameter PORTS = %d
) (
  input  wire          clk,
  input  wire          rst,
  // RoCC command interface from the control core
  input  wire [63:0]   rocc_cmd,
  input  wire          rocc_valid,
  output wire          rocc_ready,
  // per-engine dispatch buses (extra pipeline stage for die crossings)
  output reg  [127:0]  dispatch_entry [0:ENGINES-1],
  output reg  [ENGINES-1:0] dispatch_valid,
  input  wire [ENGINES-1:0] dispatch_ready,
  // scoreboard status
  input  wire [PORTS-1:0]   port_busy,
  input  wire [ENGINES-1:0] engine_busy
);
  reg [63:0] stream_rf [0:15];      // stream register file
  reg [127:0] queue [0:7];          // stream dispatch queue
  reg [7:0] queue_valid;
  reg [7:0] barrier_q;              // stream barrier queue
  assign rocc_ready = ~&queue_valid;
  integer i;
  always @(posedge clk) begin
    if (rst) begin queue_valid <= '0; barrier_q <= '0; dispatch_valid <= '0; end
    else begin
      if (rocc_valid && rocc_ready) begin
        stream_rf[rocc_cmd[3:0]] <= rocc_cmd;
        for (i = 0; i < 8; i = i + 1)
          if (!queue_valid[i]) begin
            queue[i] <= {stream_rf[rocc_cmd[7:4]], rocc_cmd};
            queue_valid[i] <= 1'b1;
          end
      end
      // out-of-order dispatch, respecting per-port request order
      for (i = 0; i < 8; i = i + 1)
        if (queue_valid[i] && !barrier_q[i]
            && !port_busy[queue[i][3:0] %% PORTS]
            && !engine_busy[queue[i][7:4] %% ENGINES]
            && dispatch_ready[queue[i][7:4] %% ENGINES]) begin
          dispatch_entry[queue[i][7:4] %% ENGINES] <= queue[i];
          dispatch_valid[queue[i][7:4] %% ENGINES] <= 1'b1;
          queue_valid[i] <= 1'b0;
        end
    end
  end
endmodule
|}
    name n_engines n_ports

(* ------------------------------------------------------------------ *)
(* Tile and top                                                        *)
(* ------------------------------------------------------------------ *)

let emit (sys : Sys_adg.t) =
  let adg = sys.adg in
  let modules = ref [] in
  let add name text = modules := (name, text) :: !modules in
  (* deduplicate structurally identical components into shared modules *)
  let pe_mods = Hashtbl.create 8 in
  let sw_mods = Hashtbl.create 8 in
  let port_mods = Hashtbl.create 8 in
  let eng_mods = Hashtbl.create 8 in
  let mod_of_node (id, comp) =
    let fan_in = List.length (Adg.preds adg id) in
    let fan_out = List.length (Adg.succs adg id) in
    match comp with
    | Comp.Pe pe ->
      let key = (pe, fan_in, fan_out) in
      (match Hashtbl.find_opt pe_mods key with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "overgen_pe_%d" (Hashtbl.length pe_mods) in
        Hashtbl.add pe_mods key n;
        add n (pe_module n pe ~fan_in ~fan_out);
        n)
    | Comp.Switch { width_bits } ->
      let key = (width_bits, fan_in, fan_out) in
      (match Hashtbl.find_opt sw_mods key with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "overgen_switch_%d" (Hashtbl.length sw_mods) in
        Hashtbl.add sw_mods key n;
        add n
          (switch_module n ~width_bits ~fan_in:(max 1 fan_in)
             ~fan_out:(max 1 fan_out));
        n)
    | Comp.In_port p | Comp.Out_port p ->
      let dir = match comp with Comp.In_port _ -> `In | _ -> `Out in
      let key = (p, dir) in
      (match Hashtbl.find_opt port_mods key with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "overgen_port_%d" (Hashtbl.length port_mods) in
        Hashtbl.add port_mods key n;
        add n (port_module n p ~dir);
        n)
    | Comp.Engine e -> (
      match Hashtbl.find_opt eng_mods e with
      | Some n -> n
      | None ->
        let n =
          Printf.sprintf "overgen_%s_engine_%d"
            (Comp.engine_kind_to_string e.kind)
            (Hashtbl.length eng_mods)
        in
        Hashtbl.add eng_mods e n;
        add n (engine_module n e);
        n)
  in
  let instances =
    List.map (fun (id, comp) -> (id, comp, mod_of_node (id, comp))) (Adg.nodes adg)
  in
  let n_engines = List.length (Adg.engines adg) in
  let n_ports =
    List.length (Adg.in_ports adg) + List.length (Adg.out_ports adg)
  in
  add "overgen_dispatcher" (dispatcher_module "overgen_dispatcher" ~n_engines ~n_ports);
  (* tile: wires per ADG edge *)
  let tile = Buffer.create 4096 in
  Buffer.add_string tile
    "// One accelerator tile: components instantiated along the ADG\n";
  Buffer.add_string tile "module overgen_tile (\n  input wire clk,\n  input wire rst,\n";
  Buffer.add_string tile "  input wire [63:0] rocc_cmd,\n  input wire rocc_valid,\n";
  Buffer.add_string tile "  output wire rocc_ready,\n  output wire [63:0] mem_axi\n);\n";
  List.iter
    (fun (src, dst) ->
      Buffer.add_string tile
        (buff "  wire [63:0] link_%d_%d; wire link_%d_%d_v;\n" src dst src dst))
    (Adg.edges adg);
  List.iter
    (fun (id, comp, mname) ->
      Buffer.add_string tile
        (buff "  %s u_%s_%d (.clk(clk)%s /* node %d: %s */);\n" mname
           (Comp.kind_name comp) id
           (if match comp with Comp.Switch _ -> false | _ -> true then ", .rst(rst)"
            else "")
           id (Comp.describe comp)))
    instances;
  Buffer.add_string tile
    (buff
       "  overgen_dispatcher u_dispatcher (.clk(clk), .rst(rst), .rocc_cmd(rocc_cmd),\n\
       \    .rocc_valid(rocc_valid), .rocc_ready(rocc_ready));\n");
  Buffer.add_string tile "  assign mem_axi = 64'd0;\nendmodule\n";
  add "overgen_tile" (Buffer.contents tile);
  (* top: tiles + uncore stubs *)
  let sysp = sys.system in
  let top = Buffer.create 1024 in
  Buffer.add_string top
    (buff
       "// OverGen SoC top: %d tiles, %d L2 banks x %dKB, %dB/cyc NoC links\n"
       sysp.System.tiles sysp.System.l2_banks
       (sysp.System.l2_kb / max 1 sysp.System.l2_banks)
       sysp.System.noc_bytes);
  Buffer.add_string top "module overgen_top (\n  input wire clk,\n  input wire rst\n);\n";
  for t = 0 to sysp.System.tiles - 1 do
    Buffer.add_string top
      (buff
         "  overgen_tile u_tile_%d (.clk(clk), .rst(rst), .rocc_cmd(64'd0),\n\
         \    .rocc_valid(1'b0), .rocc_ready(), .mem_axi());\n"
         t)
  done;
  Buffer.add_string top "  // TileLink crossbar NoC and banked inclusive L2 (behavioural stubs)\n";
  for b = 0 to sysp.System.l2_banks - 1 do
    Buffer.add_string top (buff "  // l2_bank_%d: 256-bit slave\n" b)
  done;
  Buffer.add_string top "endmodule\n";
  add "overgen_top" (Buffer.contents top);
  { modules = List.rev !modules; top = "overgen_top" }

let to_string r =
  String.concat "\n" (List.map snd r.modules)

let module_count r = List.length r.modules
