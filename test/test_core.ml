open Overgen_workload
module Dse = Overgen_dse.Dse

let model () = Models.trained 21

let small_overlay =
  lazy
    (Overgen.generate
       ~config:{ Dse.default_config with iterations = 80; seed = 33 }
       ~model:(model ())
       [ Kernels.find "vecmax"; Kernels.find "accumulate" ])

let test_generate_and_run () =
  let o = Lazy.force small_overlay in
  Alcotest.(check bool) "synth clock plausible" true
    (o.synth.freq_mhz > 40.0 && o.synth.freq_mhz <= 150.0);
  match Overgen.run o (Kernels.find "vecmax") with
  | Ok r ->
    Alcotest.(check bool) "cycles positive" true (r.cycles > 0);
    Alcotest.(check bool) "wall time positive" true (r.wall_ms > 0.0);
    Alcotest.(check bool) "compiled fast (real seconds)" true (r.compile_seconds < 30.0)
  | Error e -> Alcotest.failf "run failed: %s" e

let test_in_domain_kernels_always_run () =
  let o = Lazy.force small_overlay in
  List.iter
    (fun name ->
      match Overgen.run o (Kernels.find name) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s should run on its own overlay: %s" name e)
    [ "vecmax"; "accumulate" ]

let test_general_hosts_all () =
  match Overgen.general ~model:(model ()) Kernels.all with
  | Ok o ->
    List.iter
      (fun (k : Ir.kernel) ->
        match Overgen.run o k with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s on general: %s" k.name e)
      Kernels.all
  | Error e -> Alcotest.failf "general overlay: %s" e

let test_reconfigure_fast () =
  let o = Lazy.force small_overlay in
  let us = Overgen.reconfigure_us o in
  Alcotest.(check bool) "microseconds, not seconds" true (us > 0.1 && us < 10_000.0);
  Alcotest.(check bool) "orders faster than reflash" true
    (Overgen.fpga_reflash_ms /. (us /. 1000.0) > 1000.0)

let test_report_consistency () =
  let o = Lazy.force small_overlay in
  match Overgen.run o (Kernels.find "accumulate") with
  | Ok r ->
    Alcotest.(check (float 1e-9)) "wall time = cycles/freq"
      (float_of_int r.cycles /. (o.synth.freq_mhz *. 1000.0))
      r.wall_ms
  | Error e -> Alcotest.failf "%s" e

(* On a DSE-built overlay, [Overgen.compile] takes the DSE's own schedule
   over a fresh one when the fresh one fails or estimates slower.  The DSE
   prunes capabilities down to what its schedules exercise, so a one-shot
   greedy schedule can fail on the overlay the DSE's schedule fits: fir on
   the seed-33 fir+vecmax overlay.  Its annealed schedule can also beat the
   fresh one: mm on the seed-33 mm+accumulate overlay. *)
let test_stored_schedule_arbitration () =
  let overlay names =
    Overgen.generate
      ~config:{ Dse.default_config with iterations = 40; seed = 33 }
      ~model:(model ())
      (List.map Kernels.find names)
  in
  let both o name =
    let k = Kernels.find name in
    ( Overgen.compile o k,
      Overgen.compile ~opts:{ Overgen.default_opts with stored = `Ignore } o k )
  in
  (match both (overlay [ "fir"; "vecmax" ]) "fir" with
  | Ok _, Error _ -> ()
  | _ -> Alcotest.fail "fir: want the stored schedule where a fresh one fails");
  let o = overlay [ "mm"; "accumulate" ] in
  match both o "mm" with
  | Ok auto, Ok fresh ->
    let est (c : Overgen.compiled) =
      (Overgen_perf.Perf.app o.design.sys c.schedules).total_cycles
    in
    Alcotest.(check bool) "mm: the stored schedule estimates faster" true
      (est auto < est fresh)
  | _ -> Alcotest.fail "mm: want both schedules"

let tests =
  [
    Alcotest.test_case "generate + run" `Slow test_generate_and_run;
    Alcotest.test_case "in-domain kernels run" `Slow test_in_domain_kernels_always_run;
    Alcotest.test_case "general hosts all" `Slow test_general_hosts_all;
    Alcotest.test_case "reconfigure fast" `Slow test_reconfigure_fast;
    Alcotest.test_case "report consistency" `Slow test_report_consistency;
    Alcotest.test_case "stored schedule arbitration" `Slow
      test_stored_schedule_arbitration;
  ]
