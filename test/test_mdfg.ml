open Overgen_workload
open Overgen_mdfg

let compile_one ?(tuned = false) ?(unroll = 4) name =
  let k = Kernels.find name in
  let r = List.hd (Kernels.regions_for ~tuned k) in
  Compile.compile_region k r ~tuned ~unroll

let test_all_kernels_compile_all_unrolls () =
  List.iter
    (fun (k : Ir.kernel) ->
      let c = Compile.compile ~tuned:false k in
      List.iter
        (fun variants ->
          Alcotest.(check bool)
            (k.name ^ " has variants") true
            (List.length variants >= 1);
          List.iter
            (fun (v : Compile.variant) ->
              match Dfg.validate v.dfg with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s u=%d: %s" k.name v.unroll e)
            variants)
        c.per_region)
    Kernels.all

let test_cse_shares_fft_twiddle_products () =
  (* The fft butterfly shares TR/TI between the +/- outputs: 4 multiplies,
     not 8, per butterfly. *)
  let v = compile_one ~unroll:1 "fft" in
  let h = Dfg.op_histogram v.dfg in
  Alcotest.(check (option int)) "4 muls" (Some 4)
    (List.assoc_opt Overgen_adg.Op.Mul h)

let test_unroll_scales_muls () =
  let v1 = compile_one ~unroll:1 "mm" in
  let v4 = compile_one ~unroll:4 "mm" in
  let muls v =
    Option.value ~default:0 (List.assoc_opt Overgen_adg.Op.Mul (Dfg.op_histogram v.Compile.dfg))
  in
  Alcotest.(check int) "1 mul" 1 (muls v1);
  Alcotest.(check int) "4 muls" 4 (muls v4);
  Alcotest.(check (float 1e-6)) "firings divide"
    (v1.Compile.firings /. 4.0) v4.Compile.firings

let test_fir_stationary_reuse () =
  (* b[j] does not involve the innermost loop ii: stationary port reuse of
     128 and only 8*199 fetches (paper Section IV-B). *)
  let v = compile_one ~unroll:4 "fir" in
  let b_stream =
    List.find
      (fun (s : Stream.t) -> s.array = "b" && s.dir = Stream.Read)
      v.streams
  in
  Alcotest.(check (float 1e-6)) "stationary 64" 64.0 b_stream.reuse.stationary;
  Alcotest.(check (float 1.0)) "traffic 16*199" (16.0 *. 199.0) b_stream.reuse.traffic;
  Alcotest.(check int) "single lane despite unroll" 1 b_stream.lanes

let test_fir_footprint_matches_paper_example () =
  (* Paper Figure 5 computes footprint 255 for a[io*32+ii+j] with trips
     4/128/32; our fir uses trips 8/199/128 so footprint is
     7*128 + 127 + 198 + 1 = 1222. *)
  let v = compile_one ~unroll:1 "fir" in
  let a_stream =
    List.find (fun (s : Stream.t) -> s.array = "a" && s.dir = Stream.Read) v.streams
  in
  Alcotest.(check int) "a footprint" 1222 a_stream.reuse.footprint

let test_fir_recurrence_detected () =
  let v = compile_one ~unroll:4 "fir" in
  let c_write =
    List.find (fun (s : Stream.t) -> s.array = "c" && s.dir = Stream.Write) v.streams
  in
  match c_write.recurrence with
  | Some r ->
    Alcotest.(check int) "64 concurrent instances" 64 r.concurrent;
    Alcotest.(check (float 1e-6)) "199 recurrences" 199.0 r.recurs;
    Alcotest.(check (float 2.0)) "memory traffic collapses to footprint" 1024.0
      r.mem_traffic
  | None -> Alcotest.fail "fir c should be a recurrence candidate"

let test_mm_recurrence () =
  let v = compile_one ~unroll:1 "mm" in
  let c_write =
    List.find (fun (s : Stream.t) -> s.array = "c" && s.dir = Stream.Write) v.streams
  in
  match c_write.recurrence with
  | Some r -> Alcotest.(check int) "32 concurrent" 32 r.concurrent
  | None -> Alcotest.fail "mm c should be recurrence candidate"

let test_acc_inner_for_innermost_reduction () =
  (* crs reduces over the innermost loop: the accumulation stays inside a PE
     (acc instruction), the write stream trickles one element per row. *)
  let v = compile_one ~unroll:1 "crs" in
  let has_acc =
    List.exists
      (fun (n : Dfg.node) ->
        match n.kind with Dfg.Inst { acc; _ } -> acc | _ -> false)
      (Dfg.nodes v.dfg)
  in
  Alcotest.(check bool) "acc instruction present" true has_acc;
  let y_write =
    List.find (fun (s : Stream.t) -> s.array = "y" && s.dir = Stream.Write) v.streams
  in
  Alcotest.(check bool) "write traffic is footprint-sized" true
    (y_write.reuse.traffic <= 495.0);
  Alcotest.(check bool) "no recurrence engine needed" true
    (y_write.recurrence = None)

let test_indirect_stream () =
  let v = compile_one ~unroll:1 "crs" in
  let x_read =
    List.find (fun (s : Stream.t) -> s.array = "x" && s.dir = Stream.Read) v.streams
  in
  (match x_read.access with
  | Stream.Indirect { via } -> Alcotest.(check string) "via cidx" "cidx" via
  | Stream.Linear _ -> Alcotest.fail "x should be indirect");
  Alcotest.(check int) "footprint is whole array" 494 x_read.reuse.footprint;
  (* and the engine-internal index stream exists *)
  let idx =
    List.find (fun (s : Stream.t) -> s.array = "cidx" && s.port = None) v.streams
  in
  Alcotest.(check bool) "index stream has traffic" true (idx.reuse.traffic > 0.0)

let test_elementwise_no_recurrence () =
  let v = compile_one ~unroll:8 "accumulate" in
  List.iter
    (fun (s : Stream.t) ->
      Alcotest.(check bool) "no recurrence on element-wise RMW" true
        (s.recurrence = None))
    v.streams

let test_channel_ext_pure_movement () =
  let v = compile_one ~unroll:8 "channel-ext" in
  Alcotest.(check int) "no compute instructions" 0 (Dfg.inst_count v.dfg);
  Alcotest.(check int) "one input port" 1 (List.length (Dfg.inputs v.dfg));
  Alcotest.(check int) "one output port" 1 (List.length (Dfg.outputs v.dfg));
  let r = List.find (fun (s : Stream.t) -> s.dir = Stream.Read) v.streams in
  match r.access with
  | Stream.Linear { stride } -> Alcotest.(check int) "stride 4" 4 stride
  | Stream.Indirect _ -> Alcotest.fail "linear expected"

let test_stencil_unroll_overlap_cse () =
  (* Automatic unrolling does NOT merge overlapping window loads across
     lanes (the paper's compiler limitation, Q2) - 18 loads at u=2 - while
     the manually unrolled (tuned) source expresses the overlap in one body
     and gets CSE'd down to 12. *)
  let v1 = compile_one ~unroll:1 "blur" in
  let v2 = compile_one ~unroll:2 "blur" in
  let vt = compile_one ~tuned:true ~unroll:1 "blur" in
  let lanes v =
    List.fold_left
      (fun acc (s : Stream.t) ->
        if s.dir = Stream.Read then acc + s.lanes else acc)
      0 v.Compile.streams
  in
  Alcotest.(check int) "9 loads at u=1" 9 (lanes v1);
  Alcotest.(check int) "18 loads at u=2 (no cross-lane merge)" 18 (lanes v2);
  Alcotest.(check int) "12 loads for the tuned 2-wide body" 12 (lanes vt)

let test_tuned_stencil2d_reduces_traffic_per_output () =
  let u = compile_one ~tuned:false ~unroll:1 "stencil-2d" in
  let t = compile_one ~tuned:true ~unroll:1 "stencil-2d" in
  let read_traffic v =
    List.fold_left
      (fun acc (s : Stream.t) ->
        if s.dir = Stream.Read && s.array = "sin" then acc +. s.reuse.traffic
        else acc)
      0.0 v.Compile.streams
  in
  let out_elems v =
    List.fold_left
      (fun acc (s : Stream.t) ->
        if s.dir = Stream.Write then acc +. s.reuse.traffic else acc)
      0.0 v.Compile.streams
  in
  let per_output v = read_traffic v /. out_elems v in
  Alcotest.(check bool) "tuned reads less per output" true
    (per_output t < per_output u)

let test_summary_table2_shape () =
  let c = Compile.compile (Kernels.find "fir") in
  let s = Compile.summarize c in
  Alcotest.(check bool) "ivp >= 3" true (s.n_in_ports >= 3);
  Alcotest.(check int) "2 arrays + filter" 3 s.n_arrays;
  Alcotest.(check bool) "muls counted" true (s.n_mul >= 1)

let test_widest () =
  let c = Compile.compile (Kernels.find "mm") in
  let w = Compile.widest (List.hd c.per_region) in
  Alcotest.(check int) "widest unroll 16" 16 w.unroll

let test_variant_counts_capped_by_trip () =
  let c = Compile.compile (Kernels.find "ellpack") in
  (* innermost trip is 4: unrolls 1,2,4 only *)
  let unrolls = List.map (fun v -> v.Compile.unroll) (List.hd c.per_region) in
  Alcotest.(check (list int)) "capped" [ 1; 2; 4 ] unrolls

let prop_traffic_at_least_footprint =
  QCheck.Test.make ~name:"stream traffic >= footprint/lanes heuristic" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun (k : Ir.kernel) ->
          let c = Compile.compile k in
          List.for_all
            (List.for_all (fun (v : Compile.variant) ->
                 List.for_all
                   (fun (s : Stream.t) ->
                     s.reuse.traffic >= 0.0 && s.reuse.footprint >= 1)
                   v.streams))
            c.per_region)
        Kernels.all)

let prop_firings_times_unroll_is_iters =
  QCheck.Test.make ~name:"firings * unroll = iterations" ~count:1 QCheck.unit
    (fun () ->
      List.for_all
        (fun (k : Ir.kernel) ->
          let c = Compile.compile k in
          List.for_all
            (List.for_all (fun (v : Compile.variant) ->
                 Float.abs ((v.firings *. float_of_int v.unroll) -. v.iters) < 1e-6))
            c.per_region)
        Kernels.all)

let prop_dfg_outputs_have_producers =
  QCheck.Test.make ~name:"every DFG validates across tuned variants" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun (k : Ir.kernel) ->
          let c = Compile.compile ~tuned:true k in
          List.for_all
            (List.for_all (fun (v : Compile.variant) ->
                 match Dfg.validate v.dfg with Ok () -> true | Error _ -> false))
            c.per_region)
        Kernels.all)

let test_content_hash_deterministic () =
  List.iter
    (fun name ->
      let k = Kernels.find name in
      let h1 = Compile.hash_compiled (Compile.compile k) in
      let h2 = Compile.hash_compiled (Compile.compile k) in
      Alcotest.(check string) (name ^ " hash reproducible") h1 h2)
    [ "fir"; "gemm"; "blur" ];
  let all = List.map (fun k -> Compile.hash_compiled (Compile.compile k)) Kernels.all in
  Alcotest.(check int) "19 kernels, 19 distinct hashes" (List.length all)
    (List.length (List.sort_uniq String.compare all));
  let v1 = compile_one "fir" ~unroll:2 and v2 = compile_one "fir" ~unroll:4 in
  Alcotest.(check bool) "unroll changes the variant hash" false
    (Compile.hash_variant v1 = Compile.hash_variant v2)

(* Compiler output pinned across commits: [Compile.hash_compiled] of every
   kernel, untuned and tuned. Regenerate with OVERGEN_MDFG_GOLDEN_OUT=<file>
   dune test, then copy the file over test/mdfg-golden.tsv — only when a
   change to compiled variants is intended. *)
let test_mdfg_golden_table () =
  Golden.check ~file:"mdfg-golden.tsv" ~regen_var:"OVERGEN_MDFG_GOLDEN_OUT"
    ~header:"# kernel\tuntuned hash_compiled\ttuned hash_compiled\n"
    (List.map
       (fun (k : Ir.kernel) ->
         Printf.sprintf "%s\t%s\t%s" k.name
           (Compile.hash_compiled (Compile.compile k))
           (Compile.hash_compiled (Compile.compile ~tuned:true k)))
       Kernels.all)

(* The compiler pinned beyond Table II: [Compile.hash_compiled], untuned
   and tuned, of 200 kernels drawn as the frontend fuzzer draws them
   (seed 11, one coverage map), which reach shapes no Table II kernel has:
   several [Reduce]s, negative strides, reads of an array the region also
   writes. The last row is a histogram, [h[idx[i]] += x[i]]: an indirect
   read-modify-write, which the generator never emits. Regenerate with
   OVERGEN_MDFG_GEN_GOLDEN_OUT=<file> dune test, then copy the file over
   test/mdfg-gen-golden.tsv — only when a change to compiled variants is
   intended. *)
let test_mdfg_gen_golden_table () =
  let cov = Overgen_frontend.Gen.Cov.create () in
  let row name (k : Ir.kernel) =
    Printf.sprintf "%s\t%s\t%s" name
      (Compile.hash_compiled (Compile.compile k))
      (Compile.hash_compiled (Compile.compile ~tuned:true k))
  in
  let gen =
    List.init 200 (fun i ->
        let rng = Overgen_util.Rng.of_string (Printf.sprintf "fuzz:11:%d" i) in
        let k = Overgen_frontend.Gen.kernel ~cov rng in
        row (Printf.sprintf "%d/%s" i k.name) k)
  in
  let hist =
    let i = Ir.affine [ ("i", 1) ] in
    {
      (Kernels.find "crs") with
      name = "hist";
      arrays = [ ("h", 16); ("idx", 64); ("x", 64) ];
      regions =
        [
          {
            Ir.rname = "hist";
            loops = [ { Ir.var = "i"; trip = Ir.Fixed 64 } ];
            body =
              [
                Ir.Accum
                  ( { array = "h"; index = Ir.Indirect { idx_array = "idx"; at = i } },
                    Overgen_adg.Op.Add,
                    Ir.Load { array = "x"; index = Ir.Direct i } );
              ];
            hls = Ir.Clean;
          };
        ];
      og_tuning = None;
    }
  in
  Golden.check ~file:"mdfg-gen-golden.tsv" ~regen_var:"OVERGEN_MDFG_GEN_GOLDEN_OUT"
    ~header:"# seed/kernel\tuntuned hash_compiled\ttuned hash_compiled\n"
    (gen @ [ row "hist" hist ])

(* [Stream.describe] names each stream's direction and access: crs reads
   its dense vector through an index array and writes its result. *)
let test_stream_describe () =
  let v = compile_one ~unroll:1 "crs" in
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let has sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let ds = List.map Stream.describe v.streams in
  Alcotest.(check bool) "a write stream" true (List.exists (starts "write ") ds);
  Alcotest.(check bool) "an indirect read" true
    (List.exists (fun d -> starts "read " d && has "[.]]" d) ds)

let tests =
  [
    Alcotest.test_case "all kernels compile" `Quick test_all_kernels_compile_all_unrolls;
    Alcotest.test_case "content hashes" `Quick test_content_hash_deterministic;
    Alcotest.test_case "mdfg golden table" `Quick test_mdfg_golden_table;
    Alcotest.test_case "fft CSE" `Quick test_cse_shares_fft_twiddle_products;
    Alcotest.test_case "unroll scales ops" `Quick test_unroll_scales_muls;
    Alcotest.test_case "fir stationary reuse" `Quick test_fir_stationary_reuse;
    Alcotest.test_case "fir footprint" `Quick test_fir_footprint_matches_paper_example;
    Alcotest.test_case "fir recurrence" `Quick test_fir_recurrence_detected;
    Alcotest.test_case "mm recurrence" `Quick test_mm_recurrence;
    Alcotest.test_case "crs acc-inner" `Quick test_acc_inner_for_innermost_reduction;
    Alcotest.test_case "crs indirect" `Quick test_indirect_stream;
    Alcotest.test_case "elementwise rmw" `Quick test_elementwise_no_recurrence;
    Alcotest.test_case "channel-ext movement" `Quick test_channel_ext_pure_movement;
    Alcotest.test_case "blur overlap CSE" `Quick test_stencil_unroll_overlap_cse;
    Alcotest.test_case "tuned stencil traffic" `Quick test_tuned_stencil2d_reduces_traffic_per_output;
    Alcotest.test_case "summary shape" `Quick test_summary_table2_shape;
    Alcotest.test_case "widest" `Quick test_widest;
    Alcotest.test_case "unroll cap" `Quick test_variant_counts_capped_by_trip;
    QCheck_alcotest.to_alcotest prop_traffic_at_least_footprint;
    QCheck_alcotest.to_alcotest prop_firings_times_unroll_is_iters;
    QCheck_alcotest.to_alcotest prop_dfg_outputs_have_producers;
    Alcotest.test_case "stream describe" `Quick test_stream_describe;
    Alcotest.test_case "mdfg gen golden table" `Quick test_mdfg_gen_golden_table;
  ]
