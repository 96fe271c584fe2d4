open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler
module Bitstream = Overgen_isa.Bitstream
module Assemble = Overgen_isa.Assemble
module Emit = Overgen_rtl.Emit
module Exec = Overgen_exec.Exec

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let general = lazy (Builder.general_overlay ())

let schedules name =
  let sys = Lazy.force general in
  match Spatial.schedule_app sys (Compile.compile (Kernels.find name)) with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" name e

(* ---------------- bitstream ---------------- *)

let test_bitstream_packing () =
  let bs =
    List.fold_left Bitstream.add Bitstream.empty
      [
        { Bitstream.value = 0x5L; bits = 3 };
        { Bitstream.value = 0xFFL; bits = 8 };
        { Bitstream.value = 0x1L; bits = 1 };
      ]
  in
  Alcotest.(check int) "12 payload bits" 12 (Bitstream.bit_count bs);
  let w = Bitstream.words bs in
  (* header + 1 payload + checksum *)
  Alcotest.(check int) "3 words" 3 (Array.length w);
  (* payload: 0b1_11111111_101 = 0xFFD *)
  Alcotest.(check int64) "packed payload" 0xFFDL w.(1)

let test_bitstream_verify () =
  let bs =
    Bitstream.add Bitstream.empty
      { Bitstream.value = 42L; bits = 16 }
  in
  let w = Bitstream.words bs in
  Alcotest.(check bool) "verifies" true (Bitstream.verify w);
  let corrupted = Array.copy w in
  corrupted.(1) <- Int64.add corrupted.(1) 1L;
  Alcotest.(check bool) "detects corruption" false (Bitstream.verify corrupted)

let test_bitstream_rejects_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitstream.add: bits in 1..64")
    (fun () ->
      ignore
        (Bitstream.add Bitstream.empty
           { Bitstream.value = 0L; bits = 0 }))

(* ---------------- assembler ---------------- *)

let test_assemble_program () =
  let sys = Lazy.force general in
  let p = Assemble.assemble sys (schedules "fir") in
  Alcotest.(check string) "kernel name" "fir" p.kernel;
  Alcotest.(check int) "one region" 1 (List.length p.regions);
  let r = List.hd p.regions in
  Alcotest.(check bool) "streams present" true (List.length r.commands >= 3);
  Alcotest.(check bool) "config fields emitted" true
    (Bitstream.bit_count p.bitstream > 0);
  Alcotest.(check bool) "bitstream verifies" true
    (Bitstream.verify (Bitstream.words p.bitstream))

let test_assemble_rec_flag () =
  let sys = Lazy.force general in
  let p = Assemble.assemble sys (schedules "fir") in
  let cmds = (List.hd p.regions).commands in
  Alcotest.(check bool) "recurrence-forward streams flagged" true
    (List.exists (fun (c : Assemble.stream_cmd) -> c.rec_forward) cmds)

let test_assemble_indirect_flag () =
  let sys = Lazy.force general in
  let p = Assemble.assemble sys (schedules "crs") in
  let cmds = (List.hd p.regions).commands in
  Alcotest.(check bool) "indirect streams flagged" true
    (List.exists (fun (c : Assemble.stream_cmd) -> c.indirect) cmds);
  Alcotest.(check bool) "disassembly marks an indirect stream" true
    (contains (Assemble.disassemble p) " indirect ")

let test_disassemble_readable () =
  let sys = Lazy.force general in
  let p = Assemble.assemble sys (schedules "mm") in
  let text = Assemble.disassemble p in
  Alcotest.(check bool) "mentions kernel" true
    (String.length text > 0
    && String.sub text 0 10 = "program mm")

let test_distinct_kernels_distinct_bitstreams () =
  let sys = Lazy.force general in
  let a = Assemble.config_bitstream sys (schedules "fir") in
  let b = Assemble.config_bitstream sys (schedules "mm") in
  Alcotest.(check bool) "different configurations" true
    (Bitstream.words a <> Bitstream.words b)

(* ---------------- RTL emitter ---------------- *)

let rtl = lazy (Emit.emit (Lazy.force general))

let count_sub text sub =
  let sl = String.length sub and tl = String.length text in
  let rec go i acc =
    if i + sl > tl then acc
    else if String.sub text i sl = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_rtl_module_balance () =
  let text = Emit.to_string (Lazy.force rtl) in
  Alcotest.(check int) "module/endmodule balanced"
    (count_sub text "\nendmodule")
    (count_sub text "module overgen_")

let test_rtl_instance_counts () =
  let sys = Lazy.force general in
  let tile = List.assoc "overgen_tile" (Lazy.force rtl).modules in
  let get = count_sub tile in
  Alcotest.(check int) "24 PEs instantiated" (List.length (Adg.pes sys.adg)) (get "u_pe_");
  Alcotest.(check int) "35 switches" (List.length (Adg.switches sys.adg)) (get "u_sw_");
  Alcotest.(check int) "engines" (List.length (Adg.engines sys.adg))
    (List.fold_left (fun n p -> n + get p) 0 [ "u_dma_"; "u_spad_"; "u_rec_"; "u_gen_"; "u_reg_" ])

let test_rtl_tiles_replicated () =
  let sys = Lazy.force general in
  let top = List.assoc "overgen_top" (Lazy.force rtl).modules in
  Alcotest.(check int) "tile instances" sys.system.System.tiles
    (count_sub top "overgen_tile u_tile_")

let test_rtl_has_dispatcher_and_bypass () =
  let text = Emit.to_string (Lazy.force rtl) in
  Alcotest.(check bool) "dispatcher module" true
    (count_sub text "module overgen_dispatcher" = 1);
  Alcotest.(check bool) "one-hot bypass logic present" true
    (count_sub text "one_hot" > 0)

let test_rtl_unique_module_names () =
  let names = List.map fst (Lazy.force rtl).modules in
  Alcotest.(check int) "no duplicate module names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---------------- configuration golden ---------------- *)

let md5 s = Digest.to_hex (Digest.string s)

let words_digest bs =
  md5
    (String.concat ","
       (Array.to_list (Array.map Int64.to_string (Bitstream.words bs))))

(* the PE modules' Verilog text: opcode width and case numbering *)
let pe_rtl_digest sys =
  md5
    (String.concat "\n"
       (List.filter_map
          (fun (name, text) ->
            if String.starts_with ~prefix:"overgen_pe_" name then Some (name ^ text)
            else None)
          (Emit.emit sys).modules))

let config_row label sys scheds =
  let bs = Assemble.config_bitstream sys scheds in
  Printf.sprintf "%s\t%d\t%s\t%s\t%d" label (Bitstream.bit_count bs)
    (words_digest bs) (pe_rtl_digest sys) (Sys_adg.config_bits sys)

(* The configuration the PE opcode rule produces, per kernel: on the
   general overlay (every PE holds all 102 pairs), on the DSE's 3x4 seed
   mesh (every PE holds the suite's pool, so an opcode is a rank in a
   sparse set), and on the general overlay pruned to the kernel's own
   usage (PEs differ in their pairs, opcode widths and delay FIFOs).
   Columns: bitstream payload bits, a digest of its framed words, a
   digest of the PE modules' Verilog, and Sys_adg.config_bits; "-" where
   the kernel does not schedule.  Regenerate with
   OVERGEN_CONFIG_GOLDEN_OUT=<file> dune test, then copy the file over
   test/config-golden.tsv — only when a change to the configuration is
   intended. *)
let test_config_golden_table () =
  let general = Lazy.force general and mesh = Test_scheduler.seed_mesh_3x4 () in
  let kernels = Kernels.all @ [ Dot_reg.kernel ] in
  let rows label sys prune =
    List.map
      (fun (k : Ir.kernel) ->
        match Spatial.schedule_app sys (Compile.compile k) with
        | Error _ -> Printf.sprintf "%s/%s\t-\t-\t-\t-" label k.name
        | Ok scheds ->
          let sys =
            if prune then
              Sys_adg.with_adg sys
                (fst
                   (Overgen_dse.Mutate.prune_unused sys.adg
                      (Overgen_dse.Mutate.usage_of scheds)))
            else sys
          in
          config_row (label ^ "/" ^ k.name) sys scheds)
      kernels
  in
  Golden.check ~file:"config-golden.tsv" ~regen_var:"OVERGEN_CONFIG_GOLDEN_OUT"
    ~header:
      "# overlay/kernel\tbitstream bits\tbitstream words digest\tPE module \
       digest\tSys_adg config bits\n"
    (rows "general" general false @ rows "mesh3x4" mesh false
   @ rows "pruned" general true)

(* ---------------- functional executor ---------------- *)

let test_all_kernels_functionally_correct () =
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun u ->
          match Exec.check ~unroll:u k with
          | Ok () -> ()
          | Error e -> Alcotest.failf "u=%d: %s" u e)
        [ 1; 2; 4 ])
    Kernels.all

let test_tuned_variants_functionally_correct () =
  List.iter
    (fun (k : Ir.kernel) ->
      if k.og_tuning <> None then
        match Exec.check ~tuned:true ~unroll:2 k with
        | Ok () -> ()
        | Error e -> Alcotest.failf "tuned %s" e)
    Kernels.all

let test_executor_detects_injected_bug () =
  (* sanity: the checker is not vacuous — a wrong reference must differ *)
  let k = Kernels.find "acc-sqr" in
  let env = Exec.make_env k in
  let a = Exec.copy_env env and b = Exec.copy_env env in
  Exec.run_reference a k (List.hd k.regions);
  (* b left unexecuted: must differ *)
  Alcotest.(check bool) "difference detected" true (Exec.max_abs_diff a b > 1e-6)

let prop_exec_deterministic =
  QCheck.Test.make ~name:"executor deterministic across seeds" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      match Exec.check ~seed ~unroll:4 (Kernels.find "bgr2grey") with
      | Ok () -> true
      | Error _ -> false)

(* No Table II kernel uses the integer ops, so a kernel written for them
   checks both interpreters' semantics: min, shifts, bitwise and, or and
   xor, both compares (equal and unequal operands), and division by a zero
   divisor, which both define as 0. *)
let bitops_src =
  {|#pragma dsa kernel name(bitops) suite(dsp) dtype(i32) lanes(1) size(64)
#include <stdint.h>

static int32_t og_a[64];
static int32_t og_b[64];
static int32_t og_c[64];

void bitops_kernel(void) {
#pragma dsa config
{
  #pragma dsa decouple region(ops) hls(clean)
  for (int i = 0; i < 64; ++i) {
    og_c[i] = (min(og_a[i], og_b[i]) << 1) + (og_a[i] & og_b[i])
      + (og_a[i] | og_b[i]) + (og_a[i] ^ og_b[i]) + (og_a[i] < og_b[i])
      + (og_a[i] == og_b[i]) + (og_a[i] == og_a[i])
      + og_a[i] / (og_b[i] - og_b[i]);
  }
}
}
|}

let test_integer_ops_functionally_correct () =
  match Overgen_frontend.Frontend.parse bitops_src with
  | Error e ->
    Alcotest.failf "parse: %s" (Overgen_frontend.Frontend.error_to_string e)
  | Ok k ->
    List.iter
      (fun u ->
        match Exec.check ~unroll:u k with
        | Ok () -> ()
        | Error e -> Alcotest.failf "u=%d: %s" u e)
      [ 1; 4 ];
    (* [Ir.pretty] keys the service's compile memo: each op prints apart *)
    let text = Ir.pretty k ^ Ir.pretty Dot_reg.kernel in
    List.iter
      (fun sym -> Alcotest.(check bool) (sym ^ " printed") true (contains text sym))
      [ " << "; " & "; " | "; " ^ "; " < "; " == "; "min("; " = add(" ]

let tests =
  [
    Alcotest.test_case "bitstream packing" `Quick test_bitstream_packing;
    Alcotest.test_case "bitstream verify" `Quick test_bitstream_verify;
    Alcotest.test_case "bitstream widths" `Quick test_bitstream_rejects_bad_width;
    Alcotest.test_case "assemble program" `Quick test_assemble_program;
    Alcotest.test_case "rec flag" `Quick test_assemble_rec_flag;
    Alcotest.test_case "indirect flag" `Quick test_assemble_indirect_flag;
    Alcotest.test_case "disassemble" `Quick test_disassemble_readable;
    Alcotest.test_case "distinct bitstreams" `Quick test_distinct_kernels_distinct_bitstreams;
    Alcotest.test_case "configuration golden table" `Quick test_config_golden_table;
    Alcotest.test_case "rtl module balance" `Quick test_rtl_module_balance;
    Alcotest.test_case "rtl instance counts" `Quick test_rtl_instance_counts;
    Alcotest.test_case "rtl tile replication" `Quick test_rtl_tiles_replicated;
    Alcotest.test_case "rtl dispatcher+bypass" `Quick test_rtl_has_dispatcher_and_bypass;
    Alcotest.test_case "rtl unique modules" `Quick test_rtl_unique_module_names;
    Alcotest.test_case "all kernels functional (VCS analog)" `Slow
      test_all_kernels_functionally_correct;
    Alcotest.test_case "tuned variants functional" `Slow
      test_tuned_variants_functionally_correct;
    Alcotest.test_case "checker not vacuous" `Quick test_executor_detects_injected_bug;
    QCheck_alcotest.to_alcotest prop_exec_deterministic;
    Alcotest.test_case "integer ops functional" `Quick
      test_integer_ops_functionally_correct;
  ]
