open Overgen_workload

let test_19_kernels () =
  Alcotest.(check int) "19 workloads" 19 (List.length Kernels.all)

let test_suite_partition () =
  Alcotest.(check int) "5 dsp" 5 (List.length (Kernels.of_suite Suite.Dsp));
  Alcotest.(check int) "5 machsuite" 5 (List.length (Kernels.of_suite Suite.Machsuite));
  Alcotest.(check int) "9 vision" 9 (List.length (Kernels.of_suite Suite.Vision));
  List.iter
    (fun s ->
      List.iter
        (fun (k : Ir.kernel) -> Alcotest.(check bool) "suite matches" true (k.suite = s))
        (Kernels.of_suite s))
    Suite.all

let test_find () =
  let k = Kernels.find "fir" in
  Alcotest.(check string) "name" "fir" k.Ir.name;
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Kernels.find "nope"))

let test_affine_subst () =
  let a = Ir.affine ~const:5 [ ("i", 3); ("j", 1) ] in
  let b = Ir.affine_subst_scaled a ~var:"i" ~scale:4 ~offset:2 in
  Alcotest.(check int) "coeff scaled" 12 (Ir.affine_coeff b "i");
  Alcotest.(check int) "const shifted" 11 b.Ir.const;
  Alcotest.(check int) "other coeff untouched" 1 (Ir.affine_coeff b "j")

let test_affine_subst_absent_var () =
  let a = Ir.affine [ ("j", 2) ] in
  let b = Ir.affine_subst_scaled a ~var:"i" ~scale:4 ~offset:1 in
  Alcotest.(check bool) "unchanged" true (Ir.affine_equal a b)

let test_trip_avg () =
  Alcotest.(check (float 1e-9)) "fixed" 8.0 (Ir.trip_avg (Ir.Fixed 8));
  Alcotest.(check (float 1e-9)) "triangular" 24.0 (Ir.trip_avg (Ir.Triangular 48));
  Alcotest.(check int) "triangular max" 48 (Ir.trip_max (Ir.Triangular 48))

(* The region's iteration space and op mix, as the mDFG compiler counts
   them at unroll 1. *)
let compile_first name =
  let k = Kernels.find name in
  Overgen_mdfg.Compile.compile_region k (List.hd k.Ir.regions) ~tuned:false ~unroll:1

let test_region_iterations () =
  let v = compile_first "mm" in
  Alcotest.(check (float 1.0)) "32^3 iters" (32.0 ** 3.0) v.Overgen_mdfg.Compile.iters

let test_region_arrays () =
  let k = Kernels.find "crs" in
  let r = List.hd k.Ir.regions in
  let arrays = Ir.region_arrays r in
  Alcotest.(check bool) "includes index array" true (List.mem "cidx" arrays);
  Alcotest.(check bool) "includes x" true (List.mem "x" arrays);
  Alcotest.(check bool) "includes y" true (List.mem "y" arrays)

let test_op_histogram_fir () =
  let v = compile_first "fir" in
  let count op =
    List.length
      (List.filter
         (fun (n : Overgen_mdfg.Dfg.node) ->
           match n.kind with Overgen_mdfg.Dfg.Inst i -> i.op = op | _ -> false)
         (Overgen_mdfg.Dfg.nodes v.Overgen_mdfg.Compile.dfg))
  in
  Alcotest.(check int) "one mul" 1 (count Overgen_adg.Op.Mul);
  Alcotest.(check int) "one add (accum)" 1 (count Overgen_adg.Op.Add)

let test_arrays_declared () =
  (* Every array referenced in a region body must be declared on the kernel,
     with a large enough element count for the region footprint. *)
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun r ->
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s declares %s" k.name a)
                true
                (List.mem_assoc a k.arrays))
            (Ir.region_arrays r))
        (k.regions @ match k.og_tuning with Some t -> t.regions | None -> []))
    Kernels.all

let test_tuned_variants () =
  let tuned_names =
    List.filter_map
      (fun (k : Ir.kernel) -> Option.map (fun _ -> k.name) k.og_tuning)
      Kernels.all
  in
  Alcotest.(check (list string)) "paper Q2's four OverGen-tuned kernels"
    [ "fft"; "gemm"; "stencil-2d"; "blur" ]
    tuned_names

let test_regions_for () =
  let k = Kernels.find "gemm" in
  let untuned = Kernels.regions_for ~tuned:false k in
  let tuned = Kernels.regions_for ~tuned:true k in
  Alcotest.(check bool) "different regions when tuned" true (untuned <> tuned);
  let k2 = Kernels.find "fir" in
  Alcotest.(check bool) "no tuning falls back" true
    (Kernels.regions_for ~tuned:true k2 = k2.Ir.regions)

let test_hls_patterns_match_table4 () =
  (* Table IV: cholesky 10->5, crs 4->2, fft 2->1; strided bgr2. 9, blur 6,
     chan. 8, stcl-3d 6. *)
  let ii name =
    let k = Kernels.find name in
    match (List.hd k.Ir.regions).hls with
    | Ir.Variable_trip { untuned_ii; tuned_ii } -> (untuned_ii, tuned_ii)
    | Ir.Strided { untuned_ii } -> (untuned_ii, 1)
    | Ir.Clean -> (1, 1)
  in
  Alcotest.(check (pair int int)) "cholesky" (10, 5) (ii "cholesky");
  Alcotest.(check (pair int int)) "crs" (4, 2) (ii "crs");
  Alcotest.(check (pair int int)) "fft" (2, 1) (ii "fft");
  Alcotest.(check (pair int int)) "bgr2grey" (9, 1) (ii "bgr2grey");
  Alcotest.(check (pair int int)) "blur" (6, 1) (ii "blur");
  Alcotest.(check (pair int int)) "channel-ext" (8, 1) (ii "channel-ext");
  Alcotest.(check (pair int int)) "stencil-3d" (6, 1) (ii "stencil-3d")

let test_dtypes_match_table2 () =
  let dt name = (Kernels.find name).Ir.dtype in
  Alcotest.(check bool) "cholesky f64" true (dt "cholesky" = Overgen_adg.Dtype.F64);
  Alcotest.(check bool) "fft f32" true (dt "fft" = Overgen_adg.Dtype.F32);
  Alcotest.(check int) "fft lanes 2" 2 (Kernels.find "fft").Ir.lanes;
  Alcotest.(check bool) "gemm i64" true (dt "gemm" = Overgen_adg.Dtype.I64);
  List.iter
    (fun (k : Ir.kernel) ->
      Alcotest.(check bool) "vision is i16" true (k.dtype = Overgen_adg.Dtype.I16))
    (Kernels.of_suite Suite.Vision)

let test_pretty_renders () =
  List.iter
    (fun k ->
      let s = Ir.pretty k in
      Alcotest.(check bool) "pragma present" true
        (String.length s > 0 && String.sub s 0 2 = "//"))
    Kernels.all

let test_flags () =
  Alcotest.(check bool) "ellpack broadcast" true (Kernels.find "ellpack").Ir.needs_broadcast;
  Alcotest.(check bool) "stencil-2d window" true (Kernels.find "stencil-2d").Ir.window_reuse;
  Alcotest.(check bool) "blur window" true (Kernels.find "blur").Ir.window_reuse;
  Alcotest.(check bool) "derivative window" true (Kernels.find "derivative").Ir.window_reuse

let count_char ch s =
  String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 s

let test_c_emission_structure () =
  List.iter
    (fun (k : Ir.kernel) ->
      let c = C_source.emit k in
      Alcotest.(check int) (k.name ^ " balanced braces") (count_char '{' c)
        (count_char '}' c);
      let has sub =
        let n = String.length c and m = String.length sub in
        let rec go i = i + m <= n && (String.sub c i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dsa config pragma" true (has "#pragma dsa config");
      Alcotest.(check bool) "dsa decouple pragma" true (has "#pragma dsa decouple");
      Alcotest.(check bool) "has main" true (has "int main(void)"))
    Kernels.all

let test_c_emission_compiles () =
  (* syntax-check every emitted kernel with the host C compiler, the real
     consumer of the paper's programming interface; skipped without gcc *)
  if Sys.command "command -v gcc > /dev/null 2>&1" <> 0 then ()
  else
    List.iter
      (fun (k : Ir.kernel) ->
        List.iter
          (fun tuned ->
            let path = Filename.temp_file "overgen_kernel" ".c" in
            let oc = open_out path in
            output_string oc (C_source.emit ~tuned k);
            close_out oc;
            let rc =
              Sys.command
                (Printf.sprintf
                   "gcc -std=c99 -fsyntax-only -Werror=implicit %s 2>/dev/null"
                   (Filename.quote path))
            in
            Sys.remove path;
            Alcotest.(check int)
              (Printf.sprintf "%s (tuned=%b) is valid C" k.name tuned)
              0 rc)
          [ false; true ])
      Kernels.all

let prop_region_iterations_positive =
  QCheck.Test.make ~name:"every region has positive iteration count" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun (k : Ir.kernel) ->
          List.for_all
            (fun (r : Ir.region) ->
              List.for_all (fun (l : Ir.loop) -> Ir.trip_avg l.trip > 0.0) r.loops)
            k.regions)
        Kernels.all)

let tests =
  [
    Alcotest.test_case "19 kernels" `Quick test_19_kernels;
    Alcotest.test_case "suite partition" `Quick test_suite_partition;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "affine subst" `Quick test_affine_subst;
    Alcotest.test_case "affine subst absent" `Quick test_affine_subst_absent_var;
    Alcotest.test_case "trip avg" `Quick test_trip_avg;
    Alcotest.test_case "region iterations" `Quick test_region_iterations;
    Alcotest.test_case "region arrays" `Quick test_region_arrays;
    Alcotest.test_case "fir op histogram" `Quick test_op_histogram_fir;
    Alcotest.test_case "arrays declared" `Quick test_arrays_declared;
    Alcotest.test_case "tuned variants" `Quick test_tuned_variants;
    Alcotest.test_case "regions_for" `Quick test_regions_for;
    Alcotest.test_case "hls patterns (Table IV)" `Quick test_hls_patterns_match_table4;
    Alcotest.test_case "dtypes (Table II)" `Quick test_dtypes_match_table2;
    Alcotest.test_case "pretty renders" `Quick test_pretty_renders;
    Alcotest.test_case "kernel flags" `Quick test_flags;
    Alcotest.test_case "C emission structure" `Quick test_c_emission_structure;
    Alcotest.test_case "C emission compiles (gcc)" `Slow test_c_emission_compiles;
    QCheck_alcotest.to_alcotest prop_region_iterations_positive;
  ]
