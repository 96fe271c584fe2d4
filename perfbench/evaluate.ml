(* Workload [evaluate]: the closed, single-domain evaluate loop on the
   general overlay.  Each pass runs all 19 Table II kernels in a
   seed-shuffled order through Compile.compile → Spatial.schedule_app →
   Sim.run, and checks every simulation against the committed golden
   table. *)

open Overgen_workload
module U = Util
module Compile = Overgen_mdfg.Compile
module Spatial = Overgen_scheduler.Spatial
module Sim = Overgen_sim.Sim
module Rng = Overgen_util.Rng

type golden_row = { cycles : int; l2 : float; dram : float }

let golden_path dir = Filename.concat dir "evaluate.tsv"

let load_golden path =
  List.filter_map
    (fun l ->
      if l.[0] = '#' then None
      else
        match String.split_on_char '\t' l with
        | [ k; c; l2; d ] ->
          Some
            ( k,
              {
                cycles = int_of_string c;
                l2 = float_of_string l2;
                dram = float_of_string d;
              } )
        | _ -> failwith ("malformed golden line: " ^ l))
    (U.lines (U.read_file path))

let golden_line name (r : Sim.t) =
  Printf.sprintf "%s\t%d\t%.17g\t%.17g\n" name r.total_cycles r.l2_bytes r.dram_bytes

type sample = {
  kernel : string;
  compile_s : float;
  schedule_s : float;
  sim_s : float;
  words : float * float * float;  (** minor words: compile, schedule, sim *)
  result : Sim.t;
}

(* One kernel through the three layers; [Error] if it does not schedule or
   the simulator gives up. *)
let run_kernel sys (k : Ir.kernel) =
  let (cc, w_c), t_c =
    U.time (fun () -> U.minor_words (fun () -> U.span "mdfg" (fun () -> Compile.compile k)))
  in
  let (sched, w_s), t_s =
    U.time (fun () ->
        U.minor_words (fun () -> U.span "scheduler" (fun () -> Spatial.schedule_app sys cc)))
  in
  match sched with
  | Error e -> Error (k.name ^ ": " ^ e)
  | Ok schedules -> (
    match
      U.time (fun () ->
          U.minor_words (fun () -> U.span "sim" (fun () -> Sim.run sys schedules)))
    with
    | exception Failure e -> Error (k.name ^ ": " ^ e)
    | (result, w_r), t_r ->
      Ok
        {
          kernel = k.name;
          compile_s = t_c;
          schedule_s = t_s;
          sim_s = t_r;
          words = (w_c, w_s, w_r);
          result;
        })

(* The golden table, written by [perfbench.exe golden]. *)
let golden_table () =
  let _, overlay = U.model_and_general () in
  let sys = overlay.Overgen.design.sys in
  "# kernel\tcycles\tl2_bytes\tdram_bytes (general overlay, Sim.default_config)\n"
  ^ String.concat ""
      (List.map
         (fun (k : Ir.kernel) ->
           match run_kernel sys k with
           | Ok s -> golden_line k.name s.result
           | Error e -> failwith e)
         Kernels.all)

type phase = {
  samples : sample list;
  errors : string list;  (** failed operations *)
  mismatches : string list;  (** golden-table disagreements *)
  passes : int;
  pass_s : float list;  (** wall time of each pass *)
  wall_s : float;
}

(* Run [count] whole passes; pass [i] uses the order shuffled from
   (seed, first + i). *)
let run_passes ~sys ~golden ~seed ~first count =
  let samples = ref [] and errors = ref [] and mismatches = ref [] and pass_s = ref [] in
  let t0 = U.now () in
  for pass = 0 to count - 1 do
    let tp = U.now () in
    let rng = Rng.of_string (Printf.sprintf "evaluate:%d:%d" seed (first + pass)) in
    List.iter
      (fun (k : Ir.kernel) ->
        match run_kernel sys k with
        | Error e -> errors := e :: !errors
        | Ok s ->
          samples := s :: !samples;
          let r = s.result in
          (match List.assoc_opt k.name golden with
          | None -> mismatches := (k.name ^ ": no golden entry") :: !mismatches
          | Some g ->
            if g.cycles <> r.total_cycles || g.l2 <> r.l2_bytes || g.dram <> r.dram_bytes
            then
              mismatches :=
                Printf.sprintf "%s: cycles/l2/dram %d/%.17g/%.17g, golden %d/%.17g/%.17g"
                  k.name r.total_cycles r.l2_bytes r.dram_bytes g.cycles g.l2 g.dram
                :: !mismatches))
      (Rng.shuffle rng Kernels.all);
    pass_s := (U.now () -. tp) :: !pass_s
  done;
  {
    samples = List.rev !samples;
    errors = List.rev !errors;
    mismatches = List.rev !mismatches;
    passes = count;
    pass_s = !pass_s;
    wall_s = U.now () -. t0;
  }

let merge phases =
  let cat f = List.concat_map f phases in
  {
    samples = cat (fun p -> p.samples);
    errors = cat (fun p -> p.errors);
    mismatches = cat (fun p -> p.mismatches);
    passes = List.fold_left (fun a p -> a + p.passes) 0 phases;
    pass_s = cat (fun p -> p.pass_s);
    wall_s = U.sum (List.map (fun p -> p.wall_s) phases);
  }

let kernel_ms s = (s.compile_s +. s.schedule_s +. s.sim_s) *. 1e3
(* The kernels' costs are far apart (stencil-3d ~230 ms, stencil-2d ~130
   ms, gemm ~40 ms, ...), so the pooled samples sort into one block per
   kernel.  A p90 sits near the low edge of stencil-2d's block, an order
   statistic that swung by 19% between runs; the p97.5 sits in the middle
   of stencil-3d's block. *)
let tail_q = 0.975

(* Whole passes only, and enough of them that at least ten samples lie
   beyond the p97.5 (22 * 19 = 418). *)
let min_passes = 22

(* Passes per measured window, each window paired with the machine speed
   around it (Util.paired_windows). *)
let window_passes = 2

(* The work is set by --seconds, not by the clock, so every run at one
   setting does the same passes: a pass and its share of the speed
   samples took about this long on the 2-core machine the benchmark was
   defined on. *)
let nominal_pass_s = 0.7

let passes_for (ctx : U.ctx) seconds =
  if ctx.tiny then 1 else max 1 (int_of_float (Float.round (seconds /. nominal_pass_s)))

let run (ctx : U.ctx) =
  let t_setup = U.now () in
  let golden = load_golden (golden_path ctx.golden_dir) in
  let _model, overlay = U.model_and_general () in
  let sys = overlay.Overgen.design.sys in
  (* warm-up: one unmeasured pass fills the scheduler's per-domain
     topology caches; its cost is part of set-up *)
  let warm = run_passes ~sys ~golden ~seed:ctx.seed ~first:(-1) 1 in
  let setup_s = U.now () -. t_setup in
  let verify_errors =
    List.filter_map
      (fun (k : Ir.kernel) ->
        match Overgen.verify_functional k with
        | Ok () -> None
        | Error e -> Some (Printf.sprintf "verify_functional %s: %s" k.name e))
      Kernels.all
  in
  let nk = List.length Kernels.all in
  let finish ?(table = "") ~phase ~e2e ~layer ~report ~extra_mismatches () =
    let mismatches = warm.mismatches @ phase.mismatches @ extra_mismatches @ verify_errors in
    let attempted = phase.passes * nk in
    {
      U.correct = mismatches = [] && warm.errors = [];
      attempted;
      failed = List.length phase.errors;
      e2e;
      layer;
      report;
      table;
      notes = mismatches @ phase.errors;
    }
  in
  if not ctx.trace then begin
    let passes = if ctx.tiny then 1 else max min_passes (passes_for ctx ctx.seconds) in
    let per_window = if ctx.tiny then 1 else window_passes in
    let windows =
      U.paired_windows (passes / per_window) (fun w ->
          run_passes ~sys ~golden ~seed:ctx.seed ~first:(w * per_window) per_window)
    in
    let ph = merge (List.map fst windows) in
    let slowdown = U.median (List.map snd windows) in
    (* every kernel time on the defining machine's scale, by its window *)
    let scaled =
      List.concat_map
        (fun (w, s) -> List.map (fun smp -> (smp.kernel, kernel_ms smp /. s)) w.samples)
        windows
    in
    let n = List.length ph.samples in
    let kps =
      U.median
        (List.map (fun (w, s) -> float_of_int (w.passes * nk) /. w.wall_s *. s) windows)
    in
    let first_pass = List.filteri (fun i _ -> i < nk) ph.samples in
    let geo_ipc =
      exp (U.mean (List.map (fun s -> log s.result.Sim.sim_ipc) first_pass))
    in
    (* The pooled median lands on the upper edge of the cluster of four
       near-identical accumulate kernels, where it swings with noise; the
       median kernel's own median time does not. *)
    let per_kernel_median (k : Ir.kernel) =
      U.median (List.filter_map (fun (name, t) -> if name = k.name then Some t else None) scaled)
    in
    let p50 = U.median (List.map per_kernel_median Kernels.all) in
    let tail = U.percentile tail_q (List.map snd scaled) in
    let ok_frac = float_of_int n /. float_of_int (ph.passes * nk) in
    finish ~phase:ph ~extra_mismatches:[]
      ~e2e:
        [
          U.m "setup_s" "s" (setup_s /. slowdown);
          U.m "ok_frac" "ratio" ok_frac;
          U.m "peak_rss_mb" "MiB" (U.vm_hwm_mb None);
          U.m "throughput_per_s" "1/s" kps;
          U.m "p50_ms" "ms" p50;
          U.m "tail_ms" "ms" tail;
          U.m "quality" "ratio" geo_ipc;
        ]
      ~layer:[]
      ~report:
        [
          ("raw_setup_s", "s", setup_s);
          ("raw_kernels_per_s", "1/s", float_of_int nk /. U.median ph.pass_s);
          ("raw_kernel_p97.5_ms", "ms", U.percentile tail_q (List.map kernel_ms ph.samples));
          ("machine_slowdown", "x", slowdown);
          ("samples", "count", float_of_int n);
          ("sim_geomean_ipc", "ratio", geo_ipc);
          ("failed_frac", "ratio", 1.0 -. ok_frac);
        ]
      ()
  end
  else begin
    let passes = passes_for ctx (ctx.seconds /. 2.0) in
    let plain = run_passes ~sys ~golden ~seed:ctx.seed ~first:0 passes in
    let c0 name = U.counter name in
    let cyc0 = c0 "overgen_sim_cycles_total" and st0 = c0 "overgen_sim_stall_cycles_total" in
    let traced, spans =
      U.traced (fun () ->
          run_passes ~sys ~golden ~seed:ctx.seed ~first:0 passes)
    in
    let d_cycles = float_of_int (c0 "overgen_sim_cycles_total" - cyc0) in
    let d_stalls = float_of_int (c0 "overgen_sim_stall_cycles_total" - st0) in
    let tiles = float_of_int sys.Overgen_adg.Sys_adg.system.Overgen_adg.System.tiles in
    let per_kernel f = U.mean (List.map f plain.samples) in
    let sum_cycles =
      U.sum (List.map (fun s -> float_of_int s.result.Sim.total_cycles) plain.samples)
    in
    let sim_s = U.sum (List.map (fun s -> s.sim_s) plain.samples) in
    let w1 (a, _, _) = a and w2 (_, b, _) = b and w3 (_, _, c) = c in
    let overhead = (traced.wall_s /. plain.wall_s) -. 1.0 in
    let trace_errors, table = U.emit_trace ctx ~workload:"evaluate" spans in
    finish ~table ~phase:plain
      ~extra_mismatches:(traced.mismatches @ trace_errors)
      ~e2e:[]
      ~layer:
        [
          U.m "mdfg.compile_ms" "ms" (per_kernel (fun s -> s.compile_s *. 1e3));
          U.m "mdfg.minor_words" "words" (per_kernel (fun s -> w1 s.words));
          U.m "scheduler.schedule_ms" "ms" (per_kernel (fun s -> s.schedule_s *. 1e3));
          U.m "scheduler.minor_words" "words" (per_kernel (fun s -> w2 s.words));
          U.m "sim.run_ms" "ms" (per_kernel (fun s -> s.sim_s *. 1e3));
          U.m "sim.host_ns_per_cycle" "ns" (sim_s *. 1e9 /. sum_cycles);
          U.m "sim.minor_words" "words" (per_kernel (fun s -> w3 s.words));
          U.m "sim.cycles" "cycles" (sum_cycles /. float_of_int plain.passes);
          U.m "sim.stall_frac" "ratio"
            (if d_cycles > 0.0 then d_stalls /. (d_cycles *. tiles) else 0.0);
          U.m "obs.trace_overhead_frac" "ratio" overhead;
        ]
      ~report:[ ("passes_per_phase", "count", float_of_int plain.passes) ]
      ()
  end
