(* Bechamel micro-benchmarks: one Test per table/figure driver, measuring the
   real cost of the framework's hot paths. *)

open Bechamel
open Toolkit
open Overgen_workload
module Compile = Overgen_mdfg.Compile
module Spatial = Overgen_scheduler.Spatial
module Builder = Overgen_adg.Builder
module Sim = Overgen_sim.Sim
module Hls = Overgen_hls.Hls
module Predict = Overgen_mlp.Predict
module Oracle = Overgen_fpga.Oracle
module Dse = Overgen_dse.Dse

let tests () =
  let fir = Kernels.find "fir" in
  let sys = Builder.general_overlay () in
  let compiled = Compile.compile fir in
  let scheds =
    match Spatial.schedule_app sys compiled with
    | Ok s -> s
    | Error e -> failwith e
  in
  let model = Exp_common.model () in
  let dsp = Dse.compile_apps ~tuned:false (Kernels.of_suite Suite.Dsp) in
  [
    (* Table I/II substrate *)
    Test.make ~name:"table2/compile-fir"
      (Staged.stage (fun () -> ignore (Compile.compile fir)));
    Test.make ~name:"table1/mlp-predict-tile"
      (Staged.stage (fun () -> ignore (Predict.predict_accel model sys.adg)));
    (* Table I substrate: the largest of the four models [Predict.train]
       fits, the PE one (dataset generation, scaling, 200 epochs) *)
    Test.make ~name:"table1/mlp-train-pe"
      (Staged.stage (fun () ->
           ignore
             (Predict.train_kind ~seed:7 Predict.Pe_k
                (List.assoc Predict.Pe_k Predict.default_counts))));
    (* Figure 13 substrate *)
    Test.make ~name:"fig13/schedule-fir"
      (Staged.stage (fun () -> ignore (Spatial.schedule_app sys compiled)));
    Test.make ~name:"fig13/simulate-fir"
      (Staged.stage (fun () -> ignore (Sim.run sys scheds)));
    Test.make ~name:"fig14+15/autodse-fir"
      (Staged.stage (fun () -> ignore (Hls.autodse ~tuned:false fir)));
    (* Figure 16 substrate *)
    Test.make ~name:"fig16/synth-oracle"
      (Staged.stage (fun () -> ignore (Oracle.synth_full sys)));
    (* Figure 17 substrate *)
    Test.make ~name:"fig17/repair"
      (Staged.stage (fun () -> ignore (Spatial.repair sys scheds)));
    (* Figure 18/20 substrate: one DSE iteration-ish unit *)
    Test.make ~name:"fig20/perf-model"
      (Staged.stage (fun () ->
           ignore (Overgen_perf.Perf.objective sys [ scheds ])));
    (* Figure 20: a short annealing run — seed-design selection plus
       five iterations of reschedule, system sweep and MLP pricing *)
    Test.make ~name:"fig20/dse-5iter-dsp"
      (Staged.stage (fun () ->
           ignore
             (Dse.explore
                ~config:{ Dse.default_config with iterations = 5; islands = 1 }
                ~model dsp)));
    (* Figure 19 substrate *)
    Test.make ~name:"fig19/sim-4ch"
      (Staged.stage (fun () ->
           let sysp = { sys.system with Overgen_adg.System.dram_channels = 4 } in
           ignore (Sim.run (Overgen_adg.Sys_adg.with_system sys sysp) scheds)));
  ]

let run () =
  Exp_common.header "Bechamel micro-benchmarks (framework hot paths)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let metrics = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          Printf.printf "  %-28s %12.1f ns/run (%.3f ms)\n" name est (est /. 1e6);
          if Float.is_finite est then
            metrics := (name ^ "_ns", est) :: !metrics)
        analyzed)
    (tests ());
  { Bench.metrics = List.sort compare !metrics }
