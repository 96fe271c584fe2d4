(* The repository benchmark.

     perfbench --workload evaluate|dse|serve --seed N --seconds S --trace 0|1
               [--tiny] [--golden-dir DIR] [--out-dir DIR]
     perfbench golden [--golden-dir DIR]   rewrite the golden tables

   Prints the environment stamp, a human-readable report and, as the last
   line of standard output, one JSON object: the end-to-end metrics of an
   untraced run (--trace 0) or the per-layer metrics (--trace 1).  Exits 1
   when an output check fails, 2 on bad usage. *)

module U = Util

(* The metric sets BENCHMARK.json declares, in its order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MiB");
    ("throughput_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("quality", "ratio");
  ]

let per_layer =
  [
    ("mdfg.compile_ms", "ms");
    ("mdfg.minor_words", "words");
    ("scheduler.schedule_ms", "ms");
    ("scheduler.minor_words", "words");
    ("sim.run_ms", "ms");
    ("sim.host_ns_per_cycle", "ns");
    ("sim.minor_words", "words");
    ("sim.cycles", "cycles");
    ("sim.stall_frac", "ratio");
    ("dse.accept_ratio", "ratio");
    ("dse.invalid_ratio", "ratio");
    ("dse.repaired", "count");
    ("dse.incremental", "count");
    ("dse.rescheduled", "count");
    ("dse.minor_words_per_iter", "words");
    ("scheduler.variants_tried", "count");
    ("scheduler.variant_accept_ratio", "ratio");
    ("scheduler.routing_failures", "count");
    ("scheduler.rollback_entries", "count");
    ("perf.objective_us", "us");
    ("mlp.predict_us", "us");
    ("frontend.parse_us", "us");
    ("wire.req_bytes", "bytes");
    ("wire.resp_bytes", "bytes");
    ("wire.codec_us", "us");
    ("net.server_p50_ms", "ms");
    ("net.server_p99_ms", "ms");
    ("service.queue_wait_p99_ms", "ms");
    ("service.busy_p50_ms", "ms");
    ("service.busy_p99_ms", "ms");
    ("service.hit_ratio", "ratio");
    ("serve.unaccounted_ms", "ms");
    ("loadgen.lag_p99_ms", "ms");
    ("obs.trace_overhead_frac", "ratio");
  ]

let workloads =
  [ ("evaluate", Evaluate.run); ("dse", Dse_workload.run); ("serve", Serve.run) ]

(* A run must end within 180 s, whatever happens. *)
let watchdog_s = 170

let usage () =
  prerr_endline
    "usage: perfbench --workload evaluate|dse|serve --seed N --seconds S --trace 0|1 \
     [--tiny] [--golden-dir DIR] [--out-dir DIR]\n\
    \       perfbench golden [--golden-dir DIR]";
  exit 2

(* The metrics the result line must carry, in declaration order.  A layer
   a workload never runs did no work on it: its per-layer metrics are 0. *)
let select ~trace (o : U.outcome) =
  let decl, got, fill = if trace then (per_layer, o.layer, true) else (end_to_end, o.e2e, false) in
  List.iter
    (fun (mt : U.metric) ->
      match List.assoc_opt mt.name decl with
      | Some u when u = mt.unit_ -> ()
      | _ -> failwith (Printf.sprintf "undeclared metric %s [%s]" mt.name mt.unit_))
    got;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (mt : U.metric) -> mt.name = name) got with
      | Some mt -> mt
      | None when fill -> U.m name unit_ 0.0
      | None -> failwith ("missing metric " ^ name))
    decl

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "shard" :: rest -> Serve.shard_main rest
  | _ ->
    let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
    let tiny = ref false and golden_dir = ref "perfbench/golden" and out_dir = ref ".bench_out" in
    let golden = ref false in
    let rec parse = function
      | "--workload" :: v :: r -> workload := v; parse r
      | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
      | "--seconds" :: v :: r -> seconds := float_of_string_opt v; parse r
      | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); parse r
      | "--tiny" :: r -> tiny := true; parse r
      | "--golden-dir" :: v :: r -> golden_dir := v; parse r
      | "--out-dir" :: v :: r -> out_dir := v; parse r
      | "golden" :: r -> golden := true; parse r
      | [] -> ()
      | a :: _ -> prerr_endline ("perfbench: unexpected argument " ^ a); usage ()
    in
    parse args;
    if !golden then begin
      U.write_file (Evaluate.golden_path !golden_dir) (Evaluate.golden_table ());
      U.write_file (Dse_workload.golden_path !golden_dir) (Dse_workload.golden_table ());
      exit 0
    end;
    let run, seed, seconds, trace =
      match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
      | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
        (run, seed, seconds, trace)
      | _ -> usage ()
    in
    ignore (Unix.alarm watchdog_s);
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "perfbench: watchdog expired";
           exit 3));
    let ctx =
      { U.seed; seconds; trace; tiny = !tiny; golden_dir = !golden_dir; out_dir = !out_dir }
    in
    let load_start = U.loadavg () in
    Printf.printf "perfbench %s seed=%d seconds=%g trace=%b%s\n%!" !workload seed seconds trace
      (if !tiny then " (tiny)" else "");
    let o = run ctx in
    List.iter (fun (k, v) -> Printf.printf "  env %-20s %s\n" k v) (U.env_stamp ~load_start);
    List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6g %s\n" n v u) o.report;
    let metrics = select ~trace o in
    List.iter
      (fun (mt : U.metric) -> Printf.printf "  %-28s %14.6g %s\n" mt.name mt.value mt.unit_)
      metrics;
    if o.table <> "" then print_string ("self time by layer (traced phase):\n" ^ o.table);
    List.iter (Printf.printf "  note: %s\n") o.notes;
    let finite = List.for_all (fun (mt : U.metric) -> Float.is_finite mt.value) metrics in
    if not finite then print_endline "  FAILED: a metric is not a finite number";
    let correct = o.correct && finite in
    print_endline
      (U.result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
    exit (if correct then 0 else 1)
