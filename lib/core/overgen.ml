open Overgen_adg
open Overgen_workload
open Overgen_scheduler
open Overgen_fpga
open Overgen_mlp
module Dse = Overgen_dse.Dse
module Sim = Overgen_sim.Sim
module Obs = Overgen_obs.Obs

(* Pipeline-level metrics on the shared default registry (gated: no-ops
   until [Obs.enable]).  Registered at load time, not lazily: service
   workers compile on several domains at once, and forcing one lazy value
   from two domains raises. *)
let m_compiles =
  Obs.Metrics.counter Obs.Metrics.default "overgen_compile_total"
    ~help:"kernel compiles through Overgen.compile_variants"

let m_compile_errors =
  Obs.Metrics.counter Obs.Metrics.default "overgen_compile_errors_total"
    ~help:"kernel compiles that ended in a scheduling error"

let m_compile_s =
  Obs.Metrics.histogram Obs.Metrics.default "overgen_compile_seconds"
    ~help:"wall time of Overgen.compile_variants"

type overlay = {
  design : Dse.design;
  synth : Oracle.full;
  model : Predict.t;
  dse : Dse.result option;
}

let train_model ?(seed = 7) () = Predict.train ~seed ()

let generate ?config ?(device = Device.default) ?(tuned = false) ~model kernels =
  let result = Dse.explore_kernels ?config ~device ~tuned ~model kernels in
  let synth = Oracle.synth_full ~device result.best.sys in
  { design = result.best; synth; model; dse = Some result }

let on_design ~model sys kernels =
  let apps = Dse.compile_apps ~tuned:false kernels in
  match Dse.evaluate ~model sys apps with
  | Error e -> Error e
  | Ok design -> Ok { design; synth = Oracle.synth_full sys; model; dse = None }

let general ~model kernels = on_design ~model (Builder.general_overlay ()) kernels

type report = {
  cycles : int;
  wall_ms : float;
  ipc : float;
  compile_seconds : float;
}

let fingerprint overlay = Serial.fingerprint overlay.design.sys

let stored_schedules overlay kname =
  List.find_opt
    (fun scheds ->
      match scheds with
      | (s : Schedule.t) :: _ -> s.variant.kernel = kname
      | [] -> false)
    overlay.design.per_app

type compile_opts = { tuned : bool; stored : [ `Auto | `Ignore ] }

let default_opts = { tuned = false; stored = `Auto }

type compiled = { schedules : Schedule.t list; seconds : float }

let schedule_on_overlay ~use_stored overlay (cc : Overgen_mdfg.Compile.compiled) =
  let stored = if use_stored then stored_schedules overlay cc.kname else None in
  let fresh =
    Obs.Span.with_span "spatial_schedule" ~attrs:[ ("kernel", cc.kname) ]
    @@ fun () -> Spatial.schedule_app overlay.design.sys cc
  in
  (* The DSE may have pruned capabilities down to exactly what its own
     schedules exercise, and its annealed schedules can beat a one-shot
     greedy mapping: use whichever estimates faster. *)
  let est s =
    Obs.Span.with_span "perf_model" @@ fun () ->
    (Overgen_perf.Perf.app overlay.design.sys s).total_cycles
  in
  match (fresh, stored) with
  | Ok f, Some st -> Ok (if est f <= est st then f else st)
  | Ok f, None -> Ok f
  | Error _, Some st -> Ok st
  | Error e, None -> Error e

let compile_variants ?(opts = default_opts) overlay
    (cc : Overgen_mdfg.Compile.compiled) =
  Obs.Span.with_span "schedule" ~attrs:[ ("kernel", cc.kname) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Obs.incr m_compiles;
  let use_stored =
    match opts.stored with `Auto -> not opts.tuned | `Ignore -> false
  in
  match schedule_on_overlay ~use_stored overlay cc with
  | Ok schedules ->
    let seconds = Unix.gettimeofday () -. t0 in
    Obs.observe m_compile_s seconds;
    Ok { schedules; seconds }
  | Error e ->
    Obs.incr m_compile_errors;
    Error e

let compile ?(opts = default_opts) overlay (k : Ir.kernel) =
  Obs.Span.with_span "compile" ~attrs:[ ("kernel", k.Ir.name) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let cc =
    Obs.Span.with_span "mdfg_build" @@ fun () ->
    Overgen_mdfg.Compile.compile ~tuned:opts.tuned k
  in
  match compile_variants ~opts overlay cc with
  | Ok c -> Ok { c with seconds = Unix.gettimeofday () -. t0 }
  | Error e -> Error e

let run ?(opts = default_opts) overlay (k : Ir.kernel) =
  match compile ~opts overlay k with
  | Error e -> Error e
  | Ok c ->
    let sim =
      Obs.Span.with_span "simulate" ~attrs:[ ("kernel", k.Ir.name) ]
      @@ fun () -> Sim.run overlay.design.sys c.schedules
    in
    Ok
      {
        cycles = sim.total_cycles;
        wall_ms = Sim.wall_time_ms ~freq_mhz:overlay.synth.freq_mhz sim;
        ipc = sim.sim_ipc;
        compile_seconds = c.seconds;
      }

let reconfigure_us overlay =
  float_of_int (Sys_adg.reconfigure_cycles overlay.design.sys)
  /. overlay.synth.freq_mhz

let binary overlay schedules =
  Overgen_isa.Assemble.assemble overlay.design.sys schedules

let rtl overlay = Overgen_rtl.Emit.emit overlay.design.sys

let verify_functional ?(unroll = 4) k = Overgen_exec.Exec.check ~unroll k

(* Reflashing a full VCU118 bitstream takes on the order of seconds
   (paper Section I cites > 1 s). *)
let fpga_reflash_ms = 1400.0
