(* Observability overhead scenario: per-call cost of the gated primitives,
   then the same compile loop with the null backend (gate off, the
   default) and with recording enabled.  The contract is that leaving the
   instrumentation compiled in costs < 3% while disabled; the estimate
   below multiplies the measured per-call null cost by the number of
   instrumentation events the enabled run actually recorded.

   The same contract covers the net path: a request that carries a trace
   id pays two ungated [Span.with_trace] context switches (server
   dispatch, service process) plus the 32-byte id on the wire even with
   the gate off.  Loopback socket jitter swamps a direct wall-clock diff,
   so that overhead is estimated the same way — measured per-call cost
   times per-request call count over the measured untraced wall — while
   the traced/untraced walls are printed alongside as evidence.  Either
   estimate reaching the budget fails the scenario. *)

open Overgen_workload
module Obs = Overgen_obs.Obs
module Stats = Overgen_util.Stats
module Net = Overgen_net
module Registry = Overgen_service.Registry
module Service = Overgen_service.Service
module Trace = Overgen_service.Trace
module Rng = Overgen_util.Rng

let trials = 9

(* the contract: instrumentation compiled in but disabled costs less *)
let budget_pct = 3.0

let median_wall_s f =
  let samples =
    List.init trials (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  Stats.median samples

let run () =
  Exp_common.header "observability overhead (bench obs)";
  let overlay = Exp_common.general () in
  let kernels = Kernels.of_suite Suite.Dsp in
  let compile_loop () =
    List.iter
      (fun (k : Ir.kernel) ->
        (* `Ignore defeats the stored-schedule shortcut so the spatial
           scheduler — the instrumented hot path — actually runs *)
        match
          Overgen.compile
            ~opts:{ Overgen.default_opts with stored = `Ignore }
            overlay k
        with
        | Ok _ | Error _ -> ())
      kernels
  in
  (* --- per-call cost of the gated primitives with the gate off --- *)
  Obs.disable ();
  let n = 3_000_000 in
  let c =
    Obs.Metrics.counter Obs.Metrics.default "overgen_bench_obs_ops_total"
  in
  let per_op label f =
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. minor0) /. float_of_int n in
    Printf.printf "  %-24s %6.1f ns/op   %5.2f minor words/op\n" label
      (dt /. float_of_int n *. 1e9)
      words;
    dt /. float_of_int n
  in
  Printf.printf "gated primitives, gate off (n = %d):\n" n;
  let incr_s = per_op "Obs.incr" (fun () -> Obs.incr c) in
  let span_s =
    per_op "Obs.Span.with_span" (fun () -> Obs.Span.with_span "noop" Fun.id)
  in
  (* ungated trace-context switch: what a traced request pays per hop
     even with the null backend on *)
  let trace_id = String.make 32 'a' in
  let with_trace_s =
    per_op "Obs.Span.with_trace" (fun () -> Obs.Span.with_trace trace_id Fun.id)
  in
  print_newline ();
  (* --- the compile loop, gate off vs gate on --- *)
  compile_loop () (* warm up allocators and memo tables first *);
  let off_s = median_wall_s compile_loop in
  Obs.enable ();
  Obs.Span.reset ();
  Obs.Metrics.reset Obs.Metrics.default;
  let on_s = median_wall_s compile_loop in
  let spans = Obs.Span.count () / trials in
  let counts =
    (* counter bumps per loop, from what the enabled trials recorded *)
    let v name =
      Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name)
    in
    (v "overgen_scheduler_variants_tried_total"
    + v "overgen_scheduler_variants_accepted_total"
    + v "overgen_scheduler_routing_failures_total"
    + v "overgen_scheduler_repairs_total"
    + (3 * v "overgen_compile_total"))
    / trials
  in
  Obs.disable ();
  Obs.Span.reset ();
  Obs.Metrics.reset Obs.Metrics.default;
  let est_null_s =
    (float_of_int spans *. span_s) +. (float_of_int counts *. incr_s)
  in
  let est_pct = 100.0 *. est_null_s /. off_s in
  Printf.printf "compile loop over %d DSP kernels (median of %d trials):\n"
    (List.length kernels) trials;
  Printf.printf "  null backend (gate off)   %8.2f ms\n" (off_s *. 1000.0);
  Printf.printf
    "  recording enabled         %8.2f ms   (%+.2f %%; %d spans + %d counter bumps per loop)\n"
    (on_s *. 1000.0)
    (100.0 *. (on_s -. off_s) /. off_s)
    spans counts;
  Printf.printf
    "  null-backend overhead     %8.4f %%   (%d gated calls x measured per-call cost; target < 3 %%)%s\n\n"
    est_pct (spans + counts)
    (if est_pct < budget_pct then "  OK" else "  EXCEEDED");
  (* --- the net path: one loopback shard, untraced vs traced, gate off --- *)
  let m = 2000 and net_rate = 4000.0 and net_trials = 3 in
  let fd, port =
    match Net.Server.listen ~port:0 () with
    | Ok v -> v
    | Error e -> failwith ("obs net: listen: " ^ e)
  in
  let cluster = [| { Net.Node.host = "127.0.0.1"; port } |] in
  let node =
    let setup reg =
      if Registry.find reg "general" = None then
        match Registry.register reg ~name:"general" overlay with
        | Ok _ -> ()
        | Error e -> failwith ("obs net: register: " ^ e)
    in
    match Net.Node.init ~setup (Net.Node.default_config ~cluster ~me:0) with
    | Ok n -> n
    | Error e -> failwith ("obs net: " ^ e)
  in
  let server = Net.Server.start ~node ~fd () in
  let spec =
    Trace.spec ~seed:7 ~requests:m ~users:6 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let untraced = Net.Load_gen.of_trace (Trace.generate spec) in
  let trace_rng = Rng.of_string "obs-bench-net-trace" in
  let traced =
    Array.map
      (fun r -> { r with Net.Wire.trace = Obs.Span.fresh_trace trace_rng })
      untraced
  in
  let net_loop requests () =
    let summary =
      Net.Load_gen.run
        {
          Net.Load_gen.cluster;
          requests;
          rate = net_rate;
          timeout_s = (float_of_int m /. net_rate) +. 120.0;
          misroute_every = None;
        }
    in
    if summary.Net.Load_gen.completed <> m || summary.Net.Load_gen.failed <> 0
    then
      failwith
        (Printf.sprintf "obs net: %d/%d completed, %d failed"
           summary.Net.Load_gen.completed m summary.Net.Load_gen.failed)
  in
  let median_net requests =
    let samples =
      List.init net_trials (fun _ ->
          let t0 = Unix.gettimeofday () in
          net_loop requests ();
          Unix.gettimeofday () -. t0)
    in
    Stats.median samples
  in
  net_loop untraced () (* warm the schedule cache first *);
  let net_off_s = median_net untraced in
  let net_traced_s = median_net traced in
  Net.Server.stop server;
  Net.Node.shutdown node;
  (* per traced request, gate off: two ungated with_trace hops (server
     dispatch, service process); the client-side hop is itself gated *)
  let net_est_pct =
    100.0 *. (float_of_int m *. 2.0 *. with_trace_s) /. net_off_s
  in
  Printf.printf
    "net path, %d requests at %.0f req/s over one loopback shard (median of \
     %d):\n"
    m net_rate net_trials;
  Printf.printf "  untraced                  %8.2f ms\n" (net_off_s *. 1000.0);
  Printf.printf "  traced (gate off)         %8.2f ms   (%+.2f %% measured)\n"
    (net_traced_s *. 1000.0)
    (100.0 *. (net_traced_s -. net_off_s) /. net_off_s);
  Printf.printf
    "  null-trace overhead       %8.4f %%   (2 with_trace hops x %d requests; \
     target < 3 %%)%s\n\n"
    net_est_pct m
    (if net_est_pct < budget_pct then "  OK" else "  EXCEEDED");
  List.iter
    (fun (what, pct) ->
      if pct >= budget_pct then
        failwith
          (Printf.sprintf "obs bench: %s overhead %.4f %% reaches the %.0f %% \
                           budget"
             what pct budget_pct))
    [ ("null-backend", est_pct); ("null-trace", net_est_pct) ]
