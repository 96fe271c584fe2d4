(* The overgen command-line tool.

   overgen list                         - show the built-in workloads
   overgen show <kernel>                - pseudo-C source and mDFG summary
   overgen generate <suite|kernel...>   - run the DSE and print the design
   overgen dse <suite|kernel...>        - island-model DSE with a trace dump
   overgen run <suite|kernel...>        - generate, compile and simulate
   overgen compile <suite|kernel...>    - compile only (spans via --trace-out)
   overgen trace-validate <file>        - check an emitted Chrome trace
   overgen trace-merge <spans...>       - stitch per-shard span files into
                                          one Chrome trace
   overgen compare <suite|kernel...>    - OverGen vs the AutoDSE baseline
   overgen serve-bench                  - replay a multi-user compile-request
                                          trace against the compile service
   overgen store {ls,gc,verify}         - inspect and maintain durable
                                          artifact stores
   overgen net-serve                    - serve the compile service over TCP
                                          as a consistent-hash shard cluster
   overgen net-client                   - ping a cluster, scrape its live
                                          ops plane (stats, metrics, health,
                                          events) or drive open-loop load

   compile, dse and serve-bench accept --trace-out FILE.json (Chrome
   trace-event spans) and --metrics-out FILE (Prometheus dump); dse and
   serve-bench accept --store FILE for durable checkpoints / a persistent
   schedule cache. *)

open Cmdliner
open Overgen_workload
module Hls = Overgen_hls.Hls
module Obs = Overgen_obs.Obs
module Store = Overgen_store.Store

(* --- observability plumbing (--trace-out / --metrics-out) --- *)

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.json"
        ~doc:
          "Record phase spans and write them as Chrome trace-event JSON \
           (load in chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Dump pipeline metrics in Prometheus text exposition format on \
           exit.")

(* Runs [f] with recording enabled iff an output was requested, then emits
   the requested artifacts.  Every Chrome trace is passed through the
   exporter's own JSON validator before it reaches disk. *)
let with_obs ?(registries = fun () -> []) ~trace_out ~metrics_out f =
  if trace_out <> None || metrics_out <> None then Obs.enable ();
  let r = f () in
  (match trace_out with
  | None -> ()
  | Some path ->
    let spans = Obs.Span.spans () in
    let json = Obs.Export.to_chrome spans in
    (match Obs.Export.validate_json json with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "internal error: emitted trace is not valid JSON: %s\n" e;
      exit 1);
    Obs.Export.write_file ~path json;
    Printf.printf "trace written to %s (%d spans)\n" path (List.length spans));
  (match metrics_out with
  | None -> ()
  | Some path ->
    let dump =
      String.concat ""
        (List.map Obs.Metrics.render_prometheus
           (registries () @ [ Obs.Metrics.default ]))
    in
    Obs.Export.write_file ~path dump;
    Printf.printf "metrics written to %s\n" path);
  r

(* A target ending in .c is a source file for the pragma'd-C frontend;
   anything else is a built-in workload or suite name. *)
let parse_source_file path =
  let src =
    match open_in_bin path with
    | exception Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
  in
  match Overgen_frontend.Frontend.parse src with
  | Ok k -> k
  | Error e ->
    Printf.eprintf "%s:%s\n" path (Overgen_frontend.Frontend.error_to_string e);
    exit 1

let resolve_targets names =
  List.concat_map
    (fun name ->
      if Filename.check_suffix name ".c" then [ parse_source_file name ]
      else
        match List.find_opt (fun s -> Suite.to_string s = name) Suite.all with
        | Some suite -> Kernels.of_suite suite
        | None -> (
          try [ Kernels.find name ]
          with Not_found ->
            Printf.eprintf "unknown workload or suite: %s\n" name;
            exit 1))
    names

let targets_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"TARGET"
        ~doc:
          "Workload names, suite names (dsp, machsuite, vision), or .c \
           source files in the pragma'd kernel dialect.")

let iterations_arg =
  Arg.(
    value & opt int 300
    & info [ "i"; "iterations" ] ~docv:"N" ~doc:"DSE iterations.")

let seed_arg =
  Arg.(value & opt int 17 & info [ "seed" ] ~docv:"SEED" ~doc:"DSE random seed.")

let tuned_arg =
  Arg.(value & flag & info [ "tuned" ] ~doc:"Use manually tuned kernel sources.")

let islands_arg =
  Arg.(
    value & opt int 1
    & info [ "islands" ] ~docv:"N"
        ~doc:"Parallel annealing islands; 1 reproduces the sequential explorer.")

let migration_arg =
  Arg.(
    value & opt int Overgen_dse.Dse.default_config.migration_interval
    & info [ "migration-interval" ] ~docv:"N"
        ~doc:"Iterations between elite migrations across islands.")

let gen_overlay ?(islands = 1)
    ?(migration_interval = Overgen_dse.Dse.default_config.migration_interval)
    ~iterations ~seed ~tuned kernels =
  let model = Overgen.train_model () in
  let config =
    { Overgen_dse.Dse.default_config with iterations; seed; islands; migration_interval }
  in
  Overgen.generate ~config ~tuned ~model kernels

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun suite ->
        Printf.printf "[%s]\n" (Suite.to_string suite);
        List.iter
          (fun (k : Ir.kernel) ->
            Printf.printf "  %-12s %-10s %s%s\n" k.name k.size_desc
              (Overgen_adg.Dtype.to_string k.dtype)
              (match k.og_tuning with Some t -> "  (tunable: " ^ t.desc ^ ")" | None -> ""))
          (Kernels.of_suite suite))
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in workloads.")
    Term.(const run $ const ())

(* --- show --- *)

let show_cmd =
  let run names =
    List.iter
      (fun (k : Ir.kernel) ->
        print_string (Ir.pretty k);
        let c = Overgen_mdfg.Compile.compile k in
        let s = Overgen_mdfg.Compile.summarize c in
        Printf.printf
          "best mDFG: %d input / %d output vector ports, %d arrays, ops m/a/d = %d/%d/%d\n\n"
          s.n_in_ports s.n_out_ports s.n_arrays s.n_mul s.n_add s.n_div)
      (resolve_targets names)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a workload's source and mDFG summary.")
    Term.(const run $ targets_arg)

(* --- generate --- *)

let generate_cmd =
  let run iterations seed tuned islands migration_interval save names =
    let kernels = resolve_targets names in
    let overlay =
      gen_overlay ~islands ~migration_interval ~iterations ~seed ~tuned kernels
    in
    Printf.printf "design: %s\n" (Overgen_adg.Sys_adg.describe overlay.design.sys);
    Printf.printf "objective (est. IPC geomean): %.1f\n" overlay.design.objective;
    Printf.printf "synthesis: %.1f MHz, %s, %.1f modeled hours\n"
      overlay.synth.freq_mhz
      (Overgen_fpga.Res.describe_utilization overlay.synth.res
         ~device:Overgen_fpga.Device.xcvu9p.capacity)
      overlay.synth.hours;
    (match save with
    | Some path ->
      Overgen_adg.Serial.save overlay.design.sys ~path;
      Printf.printf "saved design to %s\n" path
    | None -> ());
    print_string (Overgen_adg.Adg.to_string overlay.design.sys.adg)
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Persist the chosen design.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Run the overlay-generation DSE for a workload set.")
    Term.(const run $ iterations_arg $ seed_arg $ tuned_arg $ islands_arg
          $ migration_arg $ save_arg $ targets_arg)

(* --- store --- *)

let open_store path =
  match Store.open_ ~path () with
  | Ok s -> s
  | Error e ->
    Printf.eprintf "cannot open store %s: %s\n" path e;
    exit 1

let store_path_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Store file path.")

let store_ls_cmd =
  let run path =
    let s = open_store path in
    let st = Store.last_open_stats s in
    Printf.printf "%s: %d record(s), %d live binding(s), %d bytes (%d live)\n"
      path st.records (Store.length s) (Store.file_bytes s)
      (Store.live_bytes s);
    if st.truncated_bytes > 0 then
      Printf.printf "recovered: %d damaged tail byte(s) truncated at open\n"
        st.truncated_bytes;
    List.iter
      (fun (ns, n) ->
        Printf.printf "[%s] %d binding(s)\n" ns n;
        List.iter
          (fun (key, value) ->
            Printf.printf "  %-44s %9d bytes\n" key (String.length value))
          (Store.bindings s ~ns))
      (Store.namespaces s);
    Store.close s
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List a store's namespaces and live bindings.")
    Term.(const run $ store_path_arg)

let store_gc_cmd =
  let run path =
    let s = open_store path in
    let before = Store.file_bytes s in
    Store.compact s;
    let after = Store.file_bytes s in
    Printf.printf "%s: compacted %d -> %d bytes (reclaimed %d), %d live binding(s)\n"
      path before after (before - after) (Store.length s);
    Store.close s
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Compact a store: rewrite the live bindings and atomically \
             replace the log, dropping overwritten and deleted records.")
    Term.(const run $ store_path_arg)

let store_verify_cmd =
  let run path =
    match Store.verify ~path with
    | Ok st ->
      Printf.printf "%s: OK — %d record(s), %d live binding(s)\n" path
        st.records st.live
    | Error { Store.offset; reason; intact_records } ->
      Printf.eprintf "%s: CORRUPT at byte offset %d: %s (%d intact record(s) precede it)\n"
        path offset reason intact_records;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Read-only integrity scan of a store file; exits non-zero and \
             prints the byte offset of the first damaged record.")
    Term.(const run $ store_path_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain durable artifact stores (the files behind \
             $(b,--store) on dse and serve-bench).")
    [ store_ls_cmd; store_gc_cmd; store_verify_cmd ]

(* --- dse --- *)

let trace_json (result : Overgen_dse.Dse.result) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"objective\": %.4f,\n  \"modeled_hours\": %.4f,\n  \"wall_seconds\": %.4f,\n  \"trace\": [\n"
    result.best.objective result.modeled_hours result.wall_seconds;
  List.iteri
    (fun i (t : Overgen_dse.Dse.trace_point) ->
      Printf.bprintf buf
        "    {\"island\": %d, \"iter\": %d, \"modeled_hours\": %.6f, \"est_ipc\": %.4f}%s\n"
        t.island t.iter t.modeled_hours t.est_ipc
        (if i = List.length result.trace - 1 then "" else ","))
    result.trace;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let dse_cmd =
  let run iterations seed tuned islands migration_interval explore_out
      store_path checkpoint_interval resume stop_after trace_out metrics_out
      names =
    if islands < 1 then `Error (false, "--islands must be positive")
    else if migration_interval < 1 then
      `Error (false, "--migration-interval must be positive")
    else if checkpoint_interval < 1 then
      `Error (false, "--checkpoint-interval must be positive")
    else if stop_after <> None && stop_after < Some 1 then
      `Error (false, "--stop-after-rounds must be positive")
    else if resume && store_path = None then
      `Error (false, "--resume requires --store")
    else begin
      let kernels = resolve_targets names in
      with_obs ~trace_out ~metrics_out @@ fun () ->
      let model = Overgen.train_model () in
      let apps = Overgen_dse.Dse.compile_apps ~tuned kernels in
      let config =
        { Overgen_dse.Dse.default_config with
          iterations; seed; islands; migration_interval }
      in
    let store = Option.map open_store store_path in
      let checkpoint =
        Option.map
          (fun s ->
            { Overgen_dse.Dse.store = s; key = "dse";
              interval = checkpoint_interval })
          store
      in
      if resume then
        Printf.printf "resuming from checkpoint in %s\n" (Option.get store_path);
      let result =
        Overgen_dse.Dse.explore ~config ?checkpoint ~resume
          ?stop_after_rounds:stop_after ~model apps
      in
      Option.iter Store.close store;
      (match stop_after with
      | Some k ->
        Printf.printf
          "stopped after %d migration round(s); checkpoint written, resume \
           with --resume\n"
          k
      | None -> ());
      Printf.printf "design: %s\n" (Overgen_adg.Sys_adg.describe result.best.sys);
      Printf.printf "objective (est. IPC geomean): %.1f\n" result.best.objective;
      Printf.printf
        "%d island(s), %d total iterations: %d accepted, %d invalid, %d \
         repaired, %d incremental, %d rescheduled\n"
        islands iterations result.stats.accepted result.stats.invalid
        result.stats.repaired result.stats.incremental result.stats.rescheduled;
      Printf.printf "modeled DSE time %.1f h (wall %.2f s), %d trace points\n"
        result.modeled_hours result.wall_seconds (List.length result.trace);
      (match explore_out with
      | Some path ->
        let oc = open_out path in
        output_string oc (trace_json result);
        close_out oc;
        Printf.printf "exploration trace written to %s\n" path
      | None -> ());
      `Ok ()
    end
  in
  let explore_out_arg =
    Arg.(value & opt (some string) None
         & info [ "explore-out" ] ~docv:"FILE"
             ~doc:"Dump the merged exploration trace (objective vs modeled \
                   hours per island) as JSON.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Durable store for periodic run checkpoints; a later \
                   invocation with $(b,--resume) continues bit-identically.")
  in
  let checkpoint_interval_arg =
    Arg.(value & opt int 1
         & info [ "checkpoint-interval" ] ~docv:"N"
             ~doc:"Migration rounds between checkpoint writes.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Continue from the checkpoint in $(b,--store) instead of \
                   starting fresh.")
  in
  let stop_after_arg =
    Arg.(value & opt (some int) None
         & info [ "stop-after-rounds" ] ~docv:"N"
             ~doc:"Halt after $(docv) migration rounds (a checkpoint is \
                   still written) — simulates an interrupted run.")
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:"Run the island-model design-space exploration and report the \
             merged trace (without synthesizing the winner).  With \
             $(b,--store) the run checkpoints its complete state \
             periodically and can be killed and resumed without losing \
             progress.")
    Term.(ret
            (const run $ iterations_arg $ seed_arg $ tuned_arg $ islands_arg
             $ migration_arg $ explore_out_arg $ store_arg
             $ checkpoint_interval_arg $ resume_arg $ stop_after_arg
             $ trace_out_arg $ metrics_out_arg $ targets_arg))

(* --- run --- *)

let load_or_generate ~iterations ~seed ~tuned ~design kernels =
  match design with
  | None -> gen_overlay ~iterations ~seed ~tuned kernels
  | Some path -> (
    match Overgen_adg.Serial.load ~path with
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      exit 1
    | Ok sys -> (
      match Overgen.on_design ~model:(Overgen.train_model ()) sys kernels with
      | Ok o -> o
      | Error e ->
        Printf.eprintf "workloads do not map on %s: %s\n" path e;
        exit 1))

let run_cmd =
  let run iterations seed tuned design names =
    let kernels = resolve_targets names in
    let overlay = load_or_generate ~iterations ~seed ~tuned ~design kernels in
    Printf.printf "overlay: %s @ %.1f MHz\n"
      (Overgen_adg.Sys_adg.describe overlay.design.sys)
      overlay.synth.freq_mhz;
    List.iter
      (fun (k : Ir.kernel) ->
        match Overgen.run ~opts:{ Overgen.default_opts with tuned } overlay k with
        | Ok r ->
          Printf.printf "%-12s %10d cycles  %8.4f ms  ipc %6.1f  (compiled in %.1f ms)\n"
            k.name r.cycles r.wall_ms r.ipc (r.compile_seconds *. 1000.0)
        | Error e -> Printf.printf "%-12s unmappable: %s\n" k.name e)
      kernels
  in
  let design_arg =
    Arg.(value & opt (some string) None
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Use a saved design instead of running the DSE.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Generate an overlay, then compile and simulate each workload.")
    Term.(const run $ iterations_arg $ seed_arg $ tuned_arg $ design_arg $ targets_arg)

(* --- compile --- *)

let compile_cmd =
  let run iterations seed tuned design trace_out metrics_out names =
    let kernels = resolve_targets names in
    with_obs ~trace_out ~metrics_out @@ fun () ->
    let overlay = load_or_generate ~iterations ~seed ~tuned ~design kernels in
    Printf.printf "overlay: %s\n"
      (Overgen_adg.Sys_adg.describe overlay.design.sys);
    List.iter
      (fun (k : Ir.kernel) ->
        match
          Overgen.compile ~opts:{ Overgen.default_opts with tuned } overlay k
        with
        | Ok c ->
          let ii_sum =
            List.fold_left
              (fun acc (s : Overgen_scheduler.Schedule.t) -> acc + s.ii)
              0 c.schedules
          in
          Printf.printf
            "%-12s %d region schedule(s)  II sum %2d  compiled in %.1f ms\n"
            k.name (List.length c.schedules) ii_sum (c.seconds *. 1000.0)
        | Error e -> Printf.printf "%-12s unmappable: %s\n" k.name e)
      kernels
  in
  let design_arg =
    Arg.(value & opt (some string) None
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Use a saved design instead of running the DSE.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile workloads onto an overlay without simulating; with \
             $(b,--trace-out) the compile phases (mDFG build, scheduling, \
             spatial mapping, perf model) are recorded as nested spans.")
    Term.(const run $ iterations_arg $ seed_arg $ tuned_arg $ design_arg
          $ trace_out_arg $ metrics_out_arg $ targets_arg)

(* --- emit-c --- *)

let emit_c_cmd =
  let run tuned out names =
    let kernels = resolve_targets names in
    match out with
    | None ->
      List.iter (fun k -> print_string (C_source.emit ~tuned k)) kernels
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (k : Ir.kernel) ->
          let path = Filename.concat dir (C_source.fn_name k ^ ".c") in
          let oc = open_out_bin path in
          output_string oc (C_source.emit ~tuned k);
          close_out oc;
          Printf.printf "wrote %s\n" path)
        kernels
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write one <kernel>.c per workload instead of printing.")
  in
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:"Emit a workload as the pragma'd C dialect the frontend parses \
             back (the golden sources under test/frontend-golden are this \
             command's output).")
    Term.(const run $ tuned_arg $ out_arg $ targets_arg)

(* --- frontend-fuzz --- *)

let frontend_fuzz_cmd =
  let module Fuzz = Overgen_frontend.Fuzz in
  let run seeds seed faults =
    (match Fuzz.round_trip_suite () with
    | [] ->
      Printf.printf "round-trip: all %d suite kernels parse back structurally \
                     equal with bit-identical compiled hashes\n"
        (List.length Kernels.all)
    | problems ->
      List.iter
        (fun (k, what) -> Printf.eprintf "round-trip %s: %s\n" k what)
        problems;
      Printf.eprintf "FAILED: %d suite kernel(s) do not round-trip\n"
        (List.length problems);
      exit 1);
    let s = Fuzz.run ~seeds ~seed ~fault_rate:faults () in
    print_string (Fuzz.summary_to_string s);
    if not (Fuzz.ok s) then begin
      Printf.eprintf
        "FAILED: %d violation(s) (%d invalid schedule(s)), %d escaped \
         exception(s)\n"
        s.Fuzz.violations s.Fuzz.invalid s.Fuzz.escaped;
      exit 1
    end
  in
  let seeds_arg =
    Arg.(value & opt int 1000
         & info [ "seeds" ] ~docv:"N" ~doc:"Independent fuzz seeds to run.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed of the fuzz streams.")
  in
  let faults_arg =
    Arg.(value & opt float 0.0
         & info [ "faults" ] ~docv:"RATE"
             ~doc:"Arm the compile/scheduler fault points at this per-visit \
                   injection rate.")
  in
  Cmd.v
    (Cmd.info "frontend-fuzz"
       ~doc:"Round-trip the built-in suite through emit/parse, then fuzz \
             the full pipeline (generate, emit, parse, compile, schedule, \
             simulate) with seeded random kernels; any escaped exception \
             or round-trip mismatch fails the run.")
    Term.(const run $ seeds_arg $ seed_arg $ faults_arg)

(* --- trace-validate --- *)

let trace_validate_cmd =
  let run path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Obs.Export.validate_json contents with
    | Error e ->
      Printf.eprintf "%s: invalid JSON: %s\n" path e;
      exit 1
    | Ok () ->
      (* a Chrome trace document must carry a traceEvents array *)
      let has_events =
        let needle = "\"traceEvents\"" in
        let n = String.length needle and l = String.length contents in
        let rec scan i =
          i + n <= l && (String.sub contents i n = needle || scan (i + 1))
        in
        scan 0
      in
      if not has_events then begin
        Printf.eprintf "%s: valid JSON but no \"traceEvents\" key\n" path;
        exit 1
      end;
      Printf.printf "%s: valid Chrome trace JSON\n" path
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE.json" ~doc:"Trace file to validate.")
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:"Check that a file emitted by $(b,--trace-out) is well-formed \
             Chrome trace-event JSON.")
    Term.(const run $ path_arg)

(* --- emit --- *)

let emit_cmd =
  let run iterations seed names what =
    let kernels = resolve_targets names in
    let overlay = gen_overlay ~iterations ~seed ~tuned:false kernels in
    match what with
    | "rtl" ->
      let rtl = Overgen.rtl overlay in
      print_string (Overgen_rtl.Emit.to_string rtl);
      Printf.eprintf "emitted %d Verilog modules (top: %s)\n"
        (Overgen_rtl.Emit.module_count rtl) rtl.top
    | "binary" ->
      List.iter
        (fun (k : Ir.kernel) ->
          match Overgen.compile overlay k with
          | Ok c ->
            print_string
              (Overgen_isa.Assemble.disassemble (Overgen.binary overlay c.schedules))
          | Error e -> Printf.printf "%s: %s\n" k.name e)
        kernels
    | other ->
      Printf.eprintf "unknown artifact %s (rtl|binary)\n" other;
      exit 1
  in
  let what =
    Arg.(value & opt string "rtl" & info [ "what" ] ~docv:"ARTIFACT" ~doc:"rtl or binary.")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit Verilog RTL or the application binary for an overlay.")
    Term.(const run $ iterations_arg $ seed_arg $ targets_arg $ what)

(* --- verify --- *)

let verify_cmd =
  let run names =
    let failures = ref 0 in
    List.iter
      (fun (k : Ir.kernel) ->
        List.iter
          (fun u ->
            match Overgen.verify_functional ~unroll:u k with
            | Ok () -> Printf.printf "%-12s u=%d OK\n" k.name u
            | Error e ->
              incr failures;
              Printf.printf "%-12s u=%d MISMATCH %s\n" k.name u e)
          [ 1; 2; 4 ])
      (resolve_targets names);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Functionally verify the compiler on concrete data (golden vs decoupled).")
    Term.(const run $ targets_arg)

(* --- compare --- *)

let compare_cmd =
  let run iterations seed names =
    let kernels = resolve_targets names in
    let overlay = gen_overlay ~iterations ~seed ~tuned:false kernels in
    Printf.printf "%-12s %12s %12s %10s\n" "kernel" "overlay(ms)" "AutoDSE(ms)" "speedup";
    List.iter
      (fun (k : Ir.kernel) ->
        match Overgen.run overlay k with
        | Ok r ->
          let ad = Hls.runtime_ms (Hls.autodse ~tuned:false k).best in
          Printf.printf "%-12s %12.4f %12.4f %9.2fx\n" k.name r.wall_ms ad
            (ad /. r.wall_ms)
        | Error e -> Printf.printf "%-12s unmappable: %s\n" k.name e)
      kernels
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare an overlay against the AutoDSE HLS baseline.")
    Term.(const run $ iterations_arg $ seed_arg $ targets_arg)

(* --- serve-bench --- *)

module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Trace = Overgen_service.Trace
module Telemetry = Overgen_service.Telemetry
module Fault = Overgen_fault.Fault
module Tenant = Overgen_fleet.Tenant
module Admission = Overgen_fleet.Admission
module Manager = Overgen_fleet.Manager
module Share = Overgen_fleet.Share

(* A digest of everything mode-independent in the responses: request id,
   success/failure, schedule count, summed II.  Equal digests between a
   --deterministic run and a --workers N run of the same seed demonstrate
   that worker parallelism does not change results. *)
let result_digest responses =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : Service.response) ->
      match r.result with
      | Ok schedules ->
        Printf.bprintf buf "%d ok %d %d\n" r.request.id (List.length schedules)
          (List.fold_left
             (fun acc (s : Overgen_scheduler.Schedule.t) -> acc + s.ii)
             0 schedules)
      | Error e ->
        Printf.bprintf buf "%d err %s\n" r.request.id (Service.error_to_string e))
    responses;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let serve_bench_cmd =
  let run requests workers deterministic seed users working_set cache_capacity
      queue_capacity dse faults fault_seed fault_transient deadline_ms retries
      store_path trace_out metrics_out tenants_spec assert_shares fleet_dse =
    let usage what = `Error (false, Printf.sprintf "%s must be positive" what) in
    let tenant_list =
      match Tenant.parse tenants_spec with Ok l -> l | Error _ -> []
    in
    if requests < 1 then usage "--requests"
    else if (not deterministic) && workers < 1 then usage "--workers"
    else if users < 1 then usage "--users"
    else if working_set < 1 then usage "--working-set"
    else if cache_capacity < 1 then usage "--cache-capacity"
    else if queue_capacity < 1 then usage "--queue-capacity"
    else if faults < 0.0 || faults > 1.0 then
      `Error (false, "--faults must be in [0, 1]")
    else if fault_transient < 0.0 || fault_transient > 1.0 then
      `Error (false, "--fault-transient must be in [0, 1]")
    else if retries < 0 then `Error (false, "--retries must be non-negative")
    else
      match Tenant.parse tenants_spec with
      | Error e -> `Error (false, Printf.sprintf "--tenants: %s" e)
      | Ok [] when assert_shares <> None ->
        `Error (false, "--assert-shares needs --tenants")
      | Ok _ ->
    begin
    (* the warm replay's service telemetry joins the Prometheus dump *)
    let warm_registry = ref None in
    let registries () = Option.to_list !warm_registry in
    with_obs ~registries ~trace_out ~metrics_out @@ fun () ->
    let model = Overgen.train_model () in
    let registry = Registry.create () in
    let must = function
      | Ok v -> v
      | Error e ->
        Printf.eprintf "serve-bench setup failed: %s\n" e;
        exit 1
    in
    let general = must (Overgen.general ~model Kernels.all) in
    ignore (must (Registry.register registry ~name:"general" general));
    let overlays =
      ("general", Kernels.all)
      ::
      (if dse <= 0 then []
       else
         List.map
           (fun suite ->
             let kernels = Kernels.of_suite suite in
             let name = Suite.to_string suite in
             let config =
               { Overgen_dse.Dse.default_config with iterations = dse; seed }
             in
             let overlay = Overgen.generate ~config ~model kernels in
             ignore (must (Registry.register registry ~name overlay));
             (name, kernels))
           Suite.all)
    in
    Printf.printf "registry: %s\n"
      (String.concat ", "
         (List.map
            (fun name ->
              let e = Option.get (Registry.find registry name) in
              Printf.sprintf "%s [%s]" name (String.sub e.fingerprint 0 8))
            (Registry.names registry)));
    let tenant_ids =
      Array.of_list (List.map (fun (t : Tenant.t) -> t.Tenant.id) tenant_list)
    in
    let spec =
      Trace.spec ~seed ~requests ~users ~working_set ~tenants:tenant_ids
        ~overlays ()
    in
    let trace = Trace.generate spec in
    if tenant_list <> [] then
      Printf.printf "tenants: %s\n"
        (String.concat ", " (List.map Tenant.to_string tenant_list));
    Printf.printf
      "trace: %d requests, %d users, %d distinct (overlay, kernel) pairs\n"
      requests users (Trace.distinct_keys spec);
    let mode =
      if deterministic then Service.Deterministic else Service.Workers workers
    in
    Printf.printf "mode: %s\n"
      (if deterministic then "deterministic (single-threaded)"
       else Printf.sprintf "%d worker domains" workers);
    let policy =
      {
        Service.retries;
        deadline_s = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
      }
    in
    (* Fault injection is armed only around the replays, so registry
       setup and overlay generation above run fault-free. *)
    if faults > 0.0 then begin
      Printf.printf
        "faults: rate %.2f, transient fraction %.2f, seed %d, retries %d%s\n"
        faults fault_transient fault_seed retries
        (match deadline_ms with
        | Some ms -> Printf.sprintf ", deadline %.0f ms" ms
        | None -> "");
      Fault.arm
        {
          Fault.default_config with
          seed = fault_seed;
          rate = faults;
          transient_fraction = fault_transient;
        };
      Fault.reset_stats ()
    end;
    print_newline ();
    (* The durable store backs only the warm (caching) replay: schedule
       outcomes write through, and a second serve-bench run against the
       same --store file starts its LRU warm from disk. *)
    let last_share_err = ref None in
    let store = Option.map open_store store_path in
    (match (store, store_path) with
    | Some s, Some p ->
      let st = Store.last_open_stats s in
      Printf.printf "store: %s, %d persisted binding(s)%s\n" p
        (Store.length s)
        (if st.truncated_bytes > 0 then
           Printf.sprintf " (recovered: %d damaged tail bytes truncated)"
             st.truncated_bytes
         else "")
    | _ -> ());
    let replay ~caching label =
      let cache =
        if caching then Cache.create ~capacity:cache_capacity ?store ()
        else Cache.create ~capacity:cache_capacity ()
      in
      if caching && Cache.warm_loaded cache > 0 then
        Printf.printf "cache warm-started with %d entr%s from the store\n"
          (Cache.warm_loaded cache)
          (if Cache.warm_loaded cache = 1 then "y" else "ies");
      let svc = Service.create ~mode ~caching ~cache ~policy registry in
      let responses, wall_s =
        match tenant_list with
        | [] ->
          let adm = Admission.create ~capacity:queue_capacity svc in
          let t0 = Unix.gettimeofday () in
          let responses = Admission.run adm trace in
          (responses, Unix.gettimeofday () -. t0)
        | tenants ->
          (* weighted-fair replay: park the whole trace in the admission
             queue (so it has room for all of it), release it at once, and
             read the achieved shares off the completion order *)
          let adm =
            Admission.create
              ~capacity:(max queue_capacity (List.length trace))
              ~tenants svc
          in
          let out = ref [] and order = ref [] in
          let om = Mutex.create () in
          let k (r : Service.response) =
            Mutex.lock om;
            out := r :: !out;
            (match r.result with
            | Error Service.Quota_exceeded -> ()
            | _ -> order := r.request.Service.tenant :: !order);
            Mutex.unlock om
          in
          Admission.hold adm;
          List.iter (fun r -> Admission.submit_k adm r ~k) trace;
          let t0 = Unix.gettimeofday () in
          Admission.release adm;
          Admission.drain adm;
          let wall_s = Unix.gettimeofday () -. t0 in
          let st = Admission.stats adm in
          let weights =
            List.map (fun (t : Tenant.t) -> (t.Tenant.id, t.Tenant.weight)) tenants
          in
          let reports = Share.measure ~weights (List.rev !order) in
          List.iter print_endline (Share.report_lines reports);
          if reports <> [] then last_share_err := Some (Share.max_rel_err reports);
          Printf.printf
            "admission: %d admitted, %d quota-shed, %d batch group(s) over %d \
             request(s)\n"
            st.Admission.admitted st.Admission.quota_shed st.Admission.batches
            st.Admission.batched_requests;
          let responses =
            List.sort
              (fun (a : Service.response) b ->
                compare a.request.Service.id b.request.Service.id)
              !out
          in
          (responses, wall_s)
      in
      Service.shutdown svc;
      if caching then
        warm_registry := Some (Telemetry.registry (Service.telemetry svc));
      print_string
        (Telemetry.report ~label ~wall_s (Telemetry.snapshot (Service.telemetry svc)));
      (match Service.cache svc with
      | Some c ->
        let s = Cache.stats c in
        Printf.printf
          "cache       hits %d / misses %d (hit rate %.1f %%), %d/%d entries, %d evictions\n"
          s.hits s.misses
          (100.0 *. Cache.hit_rate s)
          s.entries s.capacity s.evictions
      | None -> ());
      Printf.printf "result digest %s\n\n" (result_digest responses);
      (responses, wall_s)
    in
    let _, cold_s = replay ~caching:false "cold: cache disabled" in
    let warm_responses, warm_s = replay ~caching:true "warm: schedule cache" in
    if faults > 0.0 then begin
      Fault.disarm ();
      (match Fault.stats () with
      | [] -> ()
      | stats ->
        Printf.printf "fault points (both replays):\n";
        List.iter
          (fun (point, visits, injected) ->
            Printf.printf "  %-26s %6d visits  %5d injected\n" point visits
              injected)
          stats;
        print_newline ())
    end;
    let failures =
      List.length
        (List.filter
           (fun (r : Service.response) -> Result.is_error r.result)
           warm_responses)
    in
    let rps wall = float_of_int requests /. wall in
    Printf.printf
      "cold %8.1f req/s   warm %8.1f req/s   cache speedup %.1fx   failures %d\n"
      (rps cold_s) (rps warm_s) (cold_s /. warm_s) failures;
    (match store with
    | Some s ->
      Printf.printf "store: %d live binding(s), %d bytes persisted to %s\n"
        (Store.length s) (Store.file_bytes s) (Store.path s);
      Store.close s
    | None -> ());
    (match (assert_shares, !last_share_err) with
    | Some cap, Some err ->
      if err > cap then begin
        Printf.eprintf
          "FAILED: achieved share off by %.1f%% (--assert-shares %.1f%%)\n"
          (100.0 *. err) (100.0 *. cap);
        exit 1
      end;
      Printf.printf "shares: max relative error %.1f%% (cap %.1f%%)\n"
        (100.0 *. err) (100.0 *. cap)
    | Some _, None ->
      Printf.eprintf "FAILED: --assert-shares had no share measurement\n";
      exit 1
    | None, _ -> ());
    (* background fleet DSE: feed the warm replay's completions to the
       manager and promote one overlay for the observed miss profile *)
    if fleet_dse > 0 then begin
      let manager =
        Manager.create
          ~config:
            {
              Manager.default_config with
              promote_min_requests = 1;
              dse_iterations = fleet_dse;
              dse_top_kernels = 2;
            }
          ~model registry
      in
      List.iter (Manager.observe manager) warm_responses;
      match Manager.maybe_promote manager with
      | Some e ->
        Printf.printf "fleet: promoted %s [%s] from the warm miss profile\n"
          e.Registry.name
          (String.sub e.Registry.fingerprint 0 8)
      | None ->
        Printf.eprintf "FAILED: --fleet-dse saw no promotable demand\n";
        exit 1
    end;
    `Ok ()
    end
  in
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N" ~doc:"Number of compile requests to replay.")
  in
  let workers_arg =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (ignored with $(b,--deterministic)).")
  in
  let deterministic_arg =
    Arg.(value & flag
         & info [ "deterministic" ]
             ~doc:"Process requests single-threaded in submission order.")
  in
  let users_arg =
    Arg.(value & opt int 6 & info [ "users" ] ~docv:"N" ~doc:"Simulated user population.")
  in
  let ws_arg =
    Arg.(value & opt int 2
         & info [ "working-set" ] ~docv:"N" ~doc:"Kernels per user working set.")
  in
  let cache_cap_arg =
    Arg.(value & opt int 1024
         & info [ "cache-capacity" ] ~docv:"N" ~doc:"Schedule cache entries (LRU beyond).")
  in
  let queue_cap_arg =
    Arg.(value & opt int 1024
         & info [ "queue-capacity" ] ~docv:"N"
             ~doc:"Admission queue capacity: an untenanted replay waits for \
                   room; a tenanted replay parks the whole trace, so it \
                   gets at least the trace length.")
  in
  let dse_arg =
    Arg.(value & opt int 0
         & info [ "dse" ] ~docv:"ITERS"
             ~doc:"Also register one DSE-specialized overlay per suite, explored
                   for $(docv) iterations (0 = general overlay only).")
  in
  let faults_arg =
    Arg.(value & opt float 0.0
         & info [ "faults" ] ~docv:"RATE"
             ~doc:"Inject seeded faults at every fault point with probability \
                   $(docv) per visit (0 disables injection; try 0.2).")
  in
  let fault_seed_arg =
    Arg.(value & opt int Fault.default_config.seed
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Fault-injection plan seed; the same seed replays the same \
                   injections.")
  in
  let fault_transient_arg =
    Arg.(value & opt float Fault.default_config.transient_fraction
         & info [ "fault-transient" ] ~docv:"FRAC"
             ~doc:"Fraction of injected faults that are transient (retried, \
                   never cached) rather than deterministic (cached).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"MS"
             ~doc:"Per-request deadline in milliseconds, covering queue wait, \
                   compute and retries; expired requests are shed.")
  in
  let retries_arg =
    Arg.(value & opt int Service.default_policy.retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Transient-failure retry attempts per request.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Durable store backing the warm replay's schedule cache: \
                   outcomes write through, and a second serve-bench against \
                   the same $(docv) starts warm from disk.")
  in
  let tenants_bench_arg =
    Arg.(value & opt string ""
         & info [ "tenants" ] ~docv:"SPEC"
             ~doc:"Replay as weighted-fair multi-tenant traffic: \
                   comma-separated NAME:WEIGHT[:CLASS][:BURST@RATE] tenant \
                   specs (e.g. $(i,gold:10,silver:3,bronze:1:batch:25@0)); \
                   requests are striped over the tenants by user and \
                   admitted through the deficit-round-robin queue.")
  in
  let assert_shares_arg =
    Arg.(value & opt (some float) None
         & info [ "assert-shares" ] ~docv:"ERR"
             ~doc:"Exit 1 unless every tenant's achieved share of the \
                   backlogged prefix is within relative error $(docv) \
                   (e.g. 0.1) of its weight.")
  in
  let fleet_dse_arg =
    Arg.(value & opt int 0
         & info [ "fleet-dse" ] ~docv:"ITERS"
             ~doc:"After the warm replay, run one background fleet DSE of \
                   $(docv) iterations for the hottest under-served kernels \
                   and promote the winner into the registry (0 disables).")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:"Replay a synthetic multi-user compile-request trace against the \
             overlay compile service, cold (cache disabled) then warm, and \
             report throughput, latency percentiles and cache statistics.  \
             With $(b,--faults) the replay runs under deterministic seeded \
             fault injection and reports retry/shed/deadline behaviour.")
    Term.(ret
            (const run $ requests_arg $ workers_arg $ deterministic_arg
             $ seed_arg $ users_arg $ ws_arg $ cache_cap_arg $ queue_cap_arg
             $ dse_arg $ faults_arg $ fault_seed_arg $ fault_transient_arg
             $ deadline_arg $ retries_arg $ store_arg $ trace_out_arg
             $ metrics_out_arg $ tenants_bench_arg $ assert_shares_arg
             $ fleet_dse_arg))

(* --- net-serve / net-client: the sharded network tier --- *)

module Net = Overgen_net

let net_die fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n" s; exit 1) fmt

(* One overlay, generated once per process no matter how many in-process
   shards ask for it; a shard whose durable store already holds it skips
   the work entirely (the fast-restart path). *)
let net_general =
  lazy
    (match Overgen.general ~model:(Overgen.train_model ()) Kernels.all with
    | Ok o -> o
    | Error e -> net_die "general overlay: %s" e)

let net_setup registry =
  if Registry.find registry "general" = None then
    match Registry.register registry ~name:"general" (Lazy.force net_general) with
    | Ok _ -> ()
    | Error e -> net_die "register general: %s" e

let net_requests ?(traced = false) ?(tenants = [||]) ~seed ~requests ~users
    ~working_set () =
  let spec =
    Trace.spec ~seed ~requests ~users ~working_set ~tenants
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  (* trace ids come from their own named stream so the workload draws —
     and therefore the request mix — are identical traced or not *)
  let trace_rng =
    Overgen_util.Rng.of_string (Printf.sprintf "net-trace-ids:%d" seed)
  in
  let reqs =
    Net.Load_gen.of_trace
      ?trace:(if traced then Some (fun () -> Obs.Span.fresh_trace trace_rng) else None)
      (Trace.generate spec)
  in
  (Trace.distinct_keys spec, reqs)

let net_load ?(traced = false) ?(tenants = [||]) ?misroute_every ~cluster
    ~requests ~rate ~seed ~users ~working_set () =
  let distinct, reqs =
    net_requests ~traced ~tenants ~seed ~requests ~users ~working_set ()
  in
  Printf.printf "trace: %d requests, %d distinct (overlay, kernel) keys\n%!"
    requests distinct;
  let cfg =
    {
      Net.Load_gen.cluster;
      requests = reqs;
      rate;
      timeout_s = (float_of_int requests /. rate) +. 120.0;
      misroute_every;
    }
  in
  let summary = Net.Load_gen.run cfg in
  print_string (Net.Load_gen.report summary);
  if summary.Net.Load_gen.completed <> requests then
    net_die "FAILED: only %d/%d requests completed"
      summary.Net.Load_gen.completed requests;
  if summary.Net.Load_gen.failed <> 0 then
    net_die "FAILED: %d requests failed" summary.Net.Load_gen.failed

let net_block_until_signal () =
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  while not !stop do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let net_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ops-plane scrape against one shard: metrics text, health snapshot,
   recent flight-recorder events — used by net-serve --self-test to prove
   the plane answers while traffic has just flowed.  The metrics dump is
   the shard's one registry, so it must carry a server, a node and a
   service family, each family's TYPE header once, and the same served
   count the health report gives. *)
let net_scrape_check ~cluster =
  let peer : Net.Node.peer = cluster.(0) in
  match Net.Client.connect ~host:peer.host ~port:peer.port with
  | Error e -> net_die "ops scrape: %s" e
  | Ok c ->
    let scraped_served =
      match Net.Client.rpc c Net.Wire.Metrics_req with
      | Ok (Net.Wire.Metrics_dump { shard; text }) ->
        List.iter
          (fun family ->
            if not (net_contains text ("# TYPE " ^ family ^ " ")) then
              net_die "ops scrape: shard %d metrics dump lacks %s" shard family)
          [
            "overgen_net_frames_in_total";
            "overgen_net_requests_total";
            "overgen_net_served";
            "overgen_service_latency_seconds";
          ];
        let lines = String.split_on_char '\n' text in
        let types =
          List.filter (fun l -> String.starts_with ~prefix:"# TYPE " l) lines
        in
        if List.length (List.sort_uniq compare types) <> List.length types then
          net_die "ops scrape: shard %d metrics dump repeats a # TYPE line" shard;
        Printf.printf "ops plane: shard %d metrics %d bytes, %d families\n%!"
          shard (String.length text) (List.length types);
        List.find_map
          (fun l -> Scanf.sscanf_opt l "overgen_net_served %d%!" Fun.id)
          lines
      | Ok _ -> net_die "ops scrape: unexpected metrics reply"
      | Error e -> net_die "ops scrape metrics: %s" e
    in
    (match Net.Client.rpc c Net.Wire.Health_req with
    | Ok (Net.Wire.Health { shard; quiesced; served; inflight; _ }) ->
      if scraped_served <> Some served then
        net_die "ops scrape: shard %d health served %d, metrics say %s" shard
          served
          (match scraped_served with Some n -> string_of_int n | None -> "none");
      Printf.printf "ops plane: shard %d health ok (served %d, inflight %d%s)\n%!"
        shard served inflight
        (if quiesced then ", quiesced" else "")
    | Ok _ -> net_die "ops scrape: unexpected health reply"
    | Error e -> net_die "ops scrape health: %s" e);
    (match Net.Client.rpc c (Net.Wire.Recent_events_req { max = 100 }) with
    | Ok (Net.Wire.Events { shard; events }) ->
      Printf.printf "ops plane: shard %d flight recorder has %d recent events\n%!"
        shard (List.length events)
    | Ok _ -> net_die "ops scrape: unexpected events reply"
    | Error e -> net_die "ops scrape events: %s" e);
    Net.Client.close c

let net_write_spans ~pid path =
  let doc = Obs.Export.to_jsonl ~pid (Obs.Span.spans ()) in
  Obs.Export.write_file ~path doc;
  Printf.printf "spans written to %s\n%!" path

let net_serve_cmd =
  let run shards port cluster_s me store_dir ports_out workers
      self_test rate seed trace_out flight_out misroute_every tenants_spec =
    if workers < 1 then `Error (false, "--workers must be positive")
    else
      match Tenant.parse tenants_spec with
      | Error e -> `Error (false, "--tenants: " ^ e)
      | Ok tenants ->
      begin
      if trace_out <> None then Obs.enable ();
      let store_path i =
        Option.map
          (fun dir ->
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            Filename.concat dir (Printf.sprintf "shard-%d.store" i))
          store_dir
      in
      let mk_node ~cluster ~me =
        let config =
          {
            (Net.Node.default_config ~cluster ~me) with
            store_path = store_path me;
            workers;
            tenants;
          }
        in
        match Net.Node.init ~setup:net_setup config with
        | Ok n -> n
        | Error e -> net_die "shard %d: %s" me e
      in
      match cluster_s with
      | Some s -> (
        (* join an externally-coordinated cluster as shard --me *)
        match Net.Node.parse_cluster s with
        | Error e -> `Error (false, e)
        | Ok cluster ->
          if me < 0 || me >= Array.length cluster then
            `Error (false, "--me is outside --cluster")
          else begin
            (match Net.Server.listen ~port:cluster.(me).Net.Node.port () with
            | Error e -> net_die "listen: %s" e
            | Ok (fd, actual_port) ->
              let node = mk_node ~cluster ~me in
              let server = Net.Server.start ?flight_out ~node ~fd () in
              Printf.printf
                "shard %d/%d serving on 127.0.0.1:%d (^C for graceful stop)\n%!"
                me (Array.length cluster) actual_port;
              net_block_until_signal ();
              print_endline "draining...";
              Net.Server.stop server;
              Net.Node.shutdown node;
              (* span lanes are per-process: this shard's index is its pid
                 in the merged trace *)
              Option.iter (net_write_spans ~pid:me) trace_out);
            `Ok ()
          end)
      | None ->
        (* host the whole cluster in this process: bind every listener
           first, then hand each node the cluster built from the actual
           ports (so --port 0 works) *)
        if shards < 1 then `Error (false, "--shards must be positive")
        else begin
          let listeners =
            Array.init shards (fun i ->
                let p = if port = 0 then 0 else port + i in
                match Net.Server.listen ~port:p () with
                | Ok v -> v
                | Error e -> net_die "listen (shard %d): %s" i e)
          in
          let cluster =
            Array.map
              (fun (_, p) -> { Net.Node.host = "127.0.0.1"; port = p })
              listeners
          in
          let cluster_string =
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun (p : Net.Node.peer) ->
                      Printf.sprintf "%s:%d" p.Net.Node.host p.Net.Node.port)
                    cluster))
          in
          let nodes = Array.init shards (fun i -> mk_node ~cluster ~me:i) in
          (* one process, one flight recorder: every server dumps the same
             global ring, so the last graceful stop writes the full story *)
          let servers =
            Array.mapi
              (fun i node ->
                Net.Server.start ?flight_out ~node ~fd:(fst listeners.(i)) ())
              nodes
          in
          Printf.printf "%d shard%s up: %s\n%!" shards
            (if shards = 1 then "" else "s")
            cluster_string;
          (match ports_out with
          | None -> ()
          | Some path ->
            let oc = open_out path in
            output_string oc (cluster_string ^ "\n");
            close_out oc;
            Printf.printf "cluster written to %s\n%!" path);
          let stop_all () =
            Array.iter Net.Server.stop servers;
            Array.iter Net.Node.shutdown nodes
          in
          if self_test > 0 then begin
            Printf.printf "self-test: %d requests at %.0f req/s\n%!" self_test
              rate;
            net_load ~traced:(trace_out <> None) ?misroute_every ~cluster
              ~requests:self_test ~rate ~seed ~users:6 ~working_set:2 ();
            net_scrape_check ~cluster;
            stop_all ();
            print_endline "self-test passed"
          end
          else begin
            print_endline "(^C for graceful stop)";
            net_block_until_signal ();
            print_endline "draining...";
            stop_all ()
          end;
          Option.iter (net_write_spans ~pid:0) trace_out;
          `Ok ()
        end
    end
  in
  let shards_arg =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"K"
             ~doc:"Shards to host in this process (ignored with $(b,--cluster)).")
  in
  let port_arg =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Base listen port; shard $(i,i) binds PORT+$(i,i).  0 picks \
                   free ports (see $(b,--ports-out)).")
  in
  let cluster_arg =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"H:P,H:P,..."
             ~doc:"Join a multi-process cluster with this static membership \
                   (index = shard id) and serve only shard $(b,--me) of it.")
  in
  let me_arg =
    Arg.(value & opt int 0
         & info [ "me" ] ~docv:"I"
             ~doc:"This process's shard index within $(b,--cluster).")
  in
  let store_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ] ~docv:"DIR"
             ~doc:"Durable stores, one $(i,shard-<i>.store) file per shard; a \
                   restarted shard replays its file instead of recompiling.")
  in
  let ports_out_arg =
    Arg.(value & opt (some string) None
         & info [ "ports-out" ] ~docv:"FILE"
             ~doc:"Write the actual cluster string (one line) once every \
                   listener is bound; pass it to net-client $(b,--connect).")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let self_test_arg =
    Arg.(value & opt int 0
         & info [ "self-test" ] ~docv:"N"
             ~doc:"Drive $(docv) requests through the freshly-started shards, \
                   report, then stop (exit 1 on any loss or failure).")
  in
  let rate_arg =
    Arg.(value & opt float 2000.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Self-test arrival rate.")
  in
  let net_trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE.jsonl"
             ~doc:"Enable span recording and write this process's spans as \
                   JSONL on exit; feed the per-shard files to $(b,overgen \
                   trace-merge).  In $(b,--cluster) mode the span lane is \
                   labelled with $(b,--me); a whole-cluster process uses \
                   lane 0.")
  in
  let flight_out_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE.jsonl"
             ~doc:"Dump the flight recorder here — automatically on the \
                   first failed request and again, with full history, on \
                   graceful stop.")
  in
  let misroute_arg =
    Arg.(value & opt (some int) None
         & info [ "misroute-every" ] ~docv:"K"
             ~doc:"Self-test only: send every $(docv)-th request to the \
                   wrong shard to exercise the redirect path.")
  in
  let tenants_arg =
    Arg.(value & opt string ""
         & info [ "tenants" ] ~docv:"ID:W[:CLASS[:BURST[@RATE]]],..."
             ~doc:"Enable multi-tenant admission on every shard: requests \
                   are weighted-fair scheduled per tenant and over-quota \
                   ones shed deterministically.  Tenant ids not listed here \
                   get a default weight-1, unlimited SLA.")
  in
  Cmd.v
    (Cmd.info "net-serve"
       ~doc:"Serve the overlay compile service over TCP as a consistent-hash \
             shard cluster: either host all $(b,--shards) in one process, or \
             join a static $(b,--cluster) as shard $(b,--me).  Stops \
             gracefully on SIGINT/SIGTERM, draining in-flight requests.")
    Term.(ret
            (const run $ shards_arg $ port_arg $ cluster_arg $ me_arg
             $ store_dir_arg $ ports_out_arg $ workers_arg $ self_test_arg
             $ rate_arg $ seed_arg $ net_trace_out_arg $ flight_out_arg
             $ misroute_arg $ tenants_arg))

(* one ops-plane RPC against every shard in turn *)
let net_each_shard cluster f =
  Array.iteri
    (fun i (peer : Net.Node.peer) ->
      match Net.Client.connect ~host:peer.host ~port:peer.port with
      | Error e -> net_die "shard %d: %s" i e
      | Ok c ->
        f i c;
        Net.Client.close c)
    cluster

(* Submit one pragma'd C source file to a live cluster: the first shard
   either owns the request's route key or redirects it to its owner, so
   any entry point works.  One redirect hop is followed; a second means the
   cluster's shard maps disagree, which is fatal. *)
let net_submit_source ~cluster ~overlay ~tuned ~tenant path =
  let src =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e -> net_die "%s" e
  in
  let req =
    Net.Wire.Compile
      {
        Net.Wire.id = 0;
        user = "cli";
        tenant;
        overlay;
        payload = Net.Wire.Source src;
        tuned;
        trace = "";
        parent_span = 0;
      }
  in
  let rpc shard =
    let peer = cluster.(shard) in
    match Net.Client.connect ~host:peer.Net.Node.host ~port:peer.Net.Node.port with
    | Error e -> net_die "shard %d connect: %s" shard e
    | Ok c ->
      let r = Net.Client.rpc c req in
      Net.Client.close c;
      (match r with
      | Ok resp -> resp
      | Error e -> net_die "shard %d rpc: %s" shard e)
  in
  let report = function
    | Net.Wire.Result { outcome = Ok schedules; cache_hit; shard; _ } ->
      Printf.printf "%s: compiled on shard %d, %d region schedules%s\n" path
        shard (List.length schedules)
        (if cache_hit then " (cache hit)" else "")
    | Net.Wire.Result { outcome = Error e; _ } ->
      net_die "%s: %s" path (Net.Wire.wire_error_to_string e)
    | _ -> net_die "unexpected reply to compile"
  in
  match rpc 0 with
  | Net.Wire.Redirect { owner; _ } -> (
    match rpc owner with
    | Net.Wire.Redirect _ -> net_die "shard %d redirected a second time" owner
    | resp -> report resp)
  | resp -> report resp

let net_client_cmd =
  let run connect op requests rate seed users working_set events_max submit
      overlay tuned tenant =
    match Net.Node.parse_cluster connect with
    | Error e -> `Error (false, e)
    | Ok cluster ->
      net_each_shard cluster (fun i c ->
          match Net.Client.rpc c Net.Wire.Ping with
          | Ok (Net.Wire.Pong { shard; shards }) ->
            Printf.printf "shard %d/%d answering at %s:%d\n%!" shard shards
              cluster.(i).Net.Node.host cluster.(i).Net.Node.port;
            if shard <> i || shards <> Array.length cluster then
              net_die
                "cluster mismatch: %s:%d says it is shard %d of %d, but \
                 --connect places it at index %d of %d"
                cluster.(i).Net.Node.host cluster.(i).Net.Node.port shard
                shards i (Array.length cluster)
          | Ok _ -> net_die "shard %d: unexpected ping reply" i
          | Error e -> net_die "shard %d ping: %s" i e);
      (match op with
      | None when submit <> None ->
        (match submit with
        | Some path -> net_submit_source ~cluster ~overlay ~tuned ~tenant path
        | None -> assert false);
        `Ok ()
      | None when requests > 0 ->
        let tenants = if tenant = "" then [||] else [| tenant |] in
        net_load ~tenants ~cluster ~requests ~rate ~seed ~users ~working_set ();
        `Ok ()
      | None | Some "stats" ->
        (* status: one stats line per shard *)
        net_each_shard cluster (fun i c ->
            match Net.Client.rpc c Net.Wire.Stats_req with
            | Ok (Net.Wire.Stats { shard; served; hits; misses; warm_loaded })
              ->
              Printf.printf
                "shard %d: served %d, cache %d hits / %d misses, %d \
                 warm-loaded\n"
                shard served hits misses warm_loaded
            | Ok _ -> net_die "shard %d: unexpected stats reply" i
            | Error e -> net_die "shard %d stats: %s" i e);
        `Ok ()
      | Some "metrics" ->
        (* live Prometheus scrape: transport + node + service telemetry,
           no restart, no sidecar *)
        net_each_shard cluster (fun i c ->
            match Net.Client.rpc c Net.Wire.Metrics_req with
            | Ok (Net.Wire.Metrics_dump { shard; text }) ->
              Printf.printf "# shard %d\n%s" shard text
            | Ok _ -> net_die "shard %d: unexpected metrics reply" i
            | Error e -> net_die "shard %d metrics: %s" i e);
        `Ok ()
      | Some "health" ->
        net_each_shard cluster (fun i c ->
            match Net.Client.rpc c Net.Wire.Health_req with
            | Ok
                (Net.Wire.Health
                  { shard; quiesced; served; inflight; warm_loaded }) ->
              Printf.printf
                "shard %d: %s, served %d, inflight %d, warm-loaded %d\n" shard
                (if quiesced then "draining" else "serving")
                served inflight warm_loaded
            | Ok _ -> net_die "shard %d: unexpected health reply" i
            | Error e -> net_die "shard %d health: %s" i e);
        `Ok ()
      | Some "events" ->
        net_each_shard cluster (fun i c ->
            match
              Net.Client.rpc c (Net.Wire.Recent_events_req { max = events_max })
            with
            | Ok (Net.Wire.Events { shard; events }) ->
              Printf.printf "# shard %d: %d events\n" shard
                (List.length events);
              List.iter print_endline events
            | Ok _ -> net_die "shard %d: unexpected events reply" i
            | Error e -> net_die "shard %d events: %s" i e);
        `Ok ()
      | Some op -> `Error (true, Printf.sprintf "unknown operation %S" op))
  in
  let connect_arg =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"H:P,H:P,..."
             ~doc:"Cluster endpoints in shard order (the line net-serve \
                   $(b,--ports-out) writes).")
  in
  let requests_arg =
    Arg.(value & opt int 0
         & info [ "requests" ] ~docv:"N"
             ~doc:"Requests to drive open-loop through the cluster; 0 just \
                   pings every shard and prints its stats.")
  in
  let rate_arg =
    Arg.(value & opt float 2000.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Fixed arrival rate.")
  in
  let users_arg =
    Arg.(value & opt int 6
         & info [ "users" ] ~docv:"N" ~doc:"Simulated user population.")
  in
  let ws_arg =
    Arg.(value & opt int 2
         & info [ "working-set" ] ~docv:"N" ~doc:"Kernels per user working set.")
  in
  let op_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"Ops-plane operation against the live cluster: \
                   $(b,stats) (cache/served summary, the default), \
                   $(b,metrics) (full Prometheus text exposition), \
                   $(b,health) (serving/draining snapshot) or \
                   $(b,events) (recent flight-recorder events as JSONL).")
  in
  let events_max_arg =
    Arg.(value & opt int 200
         & info [ "events-max" ] ~docv:"N"
             ~doc:"Most recent flight-recorder events to fetch per shard \
                   with $(b,events).")
  in
  let submit_arg =
    Arg.(value & opt (some file) None
         & info [ "submit" ] ~docv:"FILE.C"
             ~doc:"Submit one pragma'd C source file as a compile request; \
                   the owning shard parses it with the frontend and answers \
                   with its schedules (or a located source error).")
  in
  let overlay_arg =
    Arg.(value & opt string "general"
         & info [ "overlay" ] ~docv:"NAME"
             ~doc:"Overlay to compile $(b,--submit) sources against.")
  in
  let tenant_arg =
    Arg.(value & opt string ""
         & info [ "tenant" ] ~docv:"NAME"
             ~doc:"Tenant identity to stamp on submitted requests (rides \
                   the wire and labels the server's per-tenant telemetry); \
                   empty means untenanted.")
  in
  Cmd.v
    (Cmd.info "net-client"
       ~doc:"Ping a running net-serve cluster, then scrape its ops plane \
             ($(b,stats), $(b,metrics), $(b,health), $(b,events)), submit a \
             pragma'd C source file ($(b,--submit)), or, with \
             $(b,--requests), drive an open-loop load through it, reporting \
             goodput and latency percentiles.  Exits 1 if any request is \
             lost or fails.")
    Term.(ret
            (const run $ connect_arg $ op_arg $ requests_arg $ rate_arg
             $ seed_arg $ users_arg $ ws_arg $ events_max_arg $ submit_arg
             $ overlay_arg $ tuned_arg $ tenant_arg))

(* --- trace-merge: stitch per-process span files into one Chrome trace --- *)

let trace_merge_cmd =
  let run files out =
    let read_file path =
      match open_in_bin path with
      | exception Sys_error e -> net_die "%s" e
      | ic ->
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
    in
    let pid_spans =
      List.concat_map
        (fun path ->
          match Obs.Export.parse_jsonl (read_file path) with
          | Ok spans -> spans
          | Error e -> net_die "%s: %s" path e)
        files
    in
    if pid_spans = [] then net_die "no spans in %d input file(s)"
        (List.length files);
    (match Obs.Export.orphans pid_spans with
    | [] -> ()
    | orphans ->
      List.iter
        (fun (pid, parent) ->
          Printf.eprintf "orphan parent: process %d references span %d\n" pid
            parent)
        orphans;
      net_die "FAILED: %d orphan parent reference(s)" (List.length orphans));
    let doc = Obs.Export.merge_chrome pid_spans in
    (match Obs.Export.validate_json doc with
    | Ok () -> ()
    | Error e -> net_die "internal: merged trace is not valid JSON: %s" e);
    Obs.Export.write_file ~path:out doc;
    let pids =
      List.sort_uniq compare (List.map fst pid_spans)
    in
    Printf.printf "merged %d spans from %d process lanes into %s\n"
      (List.length pid_spans) (List.length pids) out;
    `Ok ()
  in
  let files_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"SPANS.jsonl"
             ~doc:"Per-process span files (net-serve $(b,--trace-out)).")
  in
  let out_arg =
    Arg.(value & opt string "trace-merged.json"
         & info [ "out" ] ~docv:"FILE.json" ~doc:"Merged Chrome trace output.")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:"Stitch the JSONL span files written by each shard process \
             ($(b,net-serve --trace-out)) into one Chrome trace-event \
             document with a lane per process, checking parent links and \
             validating the JSON before writing.  Load the result in \
             chrome://tracing or Perfetto.")
    Term.(ret (const run $ files_arg $ out_arg))

let () =
  let doc = "domain-specific FPGA overlay generation (OverGen, MICRO 2022)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "overgen" ~doc)
          [ list_cmd; show_cmd; generate_cmd; dse_cmd; run_cmd; compile_cmd;
            emit_c_cmd; frontend_fuzz_cmd; trace_validate_cmd; trace_merge_cmd;
            compare_cmd; emit_cmd; verify_cmd; serve_bench_cmd; store_cmd;
            net_serve_cmd; net_client_cmd ]))
