open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler
module Perf = Overgen_perf.Perf
module Sim = Overgen_sim.Sim

let general = lazy (Builder.general_overlay ())

let schedules name =
  let sys = Lazy.force general in
  match Spatial.schedule_app sys (Compile.compile (Kernels.find name)) with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" name e

(* ---------------- performance model ---------------- *)

let test_factors_in_unit_range () =
  let sys = Lazy.force general in
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun s ->
          let r = List.hd (Perf.app sys [ s ]).regions in
          let in01 x = x > 0.0 && x <= 1.0 in
          Alcotest.(check bool) "spad" true (in01 r.spad_factor);
          Alcotest.(check bool) "noc" true (in01 r.noc_factor);
          Alcotest.(check bool) "l2" true (in01 r.l2_factor);
          Alcotest.(check bool) "dram" true (in01 r.dram_factor);
          Alcotest.(check (float 1e-9)) "bottleneck is the min"
            (Float.min r.spad_factor
               (Float.min r.noc_factor (Float.min r.l2_factor r.dram_factor)))
            r.bottleneck;
          Alcotest.(check bool) "cycles positive" true (r.cycles > 0.0))
        (schedules k.name))
    Kernels.all

let test_eq1_structure () =
  (* Equation 1: est_ipc = ipc_single * tiles * bottleneck *)
  let sys = Lazy.force general in
  let s = List.hd (schedules "fir") in
  let r = List.hd (Perf.app sys [ s ]).regions in
  Alcotest.(check (float 1e-6)) "eq1"
    (r.ipc_single *. float_of_int sys.system.System.tiles *. r.bottleneck)
    r.est_ipc

let test_more_tiles_more_ipc_until_bandwidth () =
  let sys = Lazy.force general in
  let s = schedules "fir" in
  let ipc_at tiles =
    let sys' = Sys_adg.with_system sys { sys.system with System.tiles } in
    (Perf.app sys' s).app_ipc
  in
  Alcotest.(check bool) "2 tiles >= 1 tile" true (ipc_at 2 >= ipc_at 1);
  Alcotest.(check bool) "4 tiles >= 2 tiles" true (ipc_at 4 >= ipc_at 2)

let test_memory_bound_kernel_saturates () =
  (* accumulate is bandwidth-bound: 16 tiles cannot be 4x of 4 tiles *)
  let sys = Lazy.force general in
  let s = schedules "accumulate" in
  let ipc_at tiles =
    let sys' = Sys_adg.with_system sys { sys.system with System.tiles } in
    (Perf.app sys' s).app_ipc
  in
  Alcotest.(check bool) "sublinear scaling" true (ipc_at 16 < 4.0 *. ipc_at 4)

let test_more_banks_help_l2_bound () =
  let sys = Lazy.force general in
  let s = schedules "accumulate" in
  let cyc banks =
    let sys' = Sys_adg.with_system sys { sys.system with System.l2_banks = banks } in
    (Perf.app sys' s).total_cycles
  in
  Alcotest.(check bool) "8 banks <= 2 banks" true (cyc 8 <= cyc 2)

let test_objective_geomean () =
  let sys = Lazy.force general in
  let a = schedules "fir" and b = schedules "mm" in
  let oa = Perf.objective sys [ a ] and ob = Perf.objective sys [ b ] in
  let oab = Perf.objective sys [ a; b ] in
  Alcotest.(check (float 1e-6)) "geomean of the pair" (sqrt (oa *. ob)) oab

let test_stride_waste () =
  let s4 =
    List.find
      (fun (s : Stream.t) -> s.dir = Stream.Read)
      (List.hd (schedules "channel-ext")).variant.streams
  in
  Alcotest.(check (float 1e-9)) "stride-4 wastes 4x" 4.0 (Perf.stride_waste s4)

(* ---------------- simulator ---------------- *)

let test_sim_runs_everything () =
  let sys = Lazy.force general in
  List.iter
    (fun (k : Ir.kernel) ->
      let r = Sim.run sys (schedules k.name) in
      Alcotest.(check bool) (k.name ^ " finishes") true (r.total_cycles > 0);
      Alcotest.(check bool) "ipc positive" true (r.sim_ipc > 0.0))
    Kernels.all

let test_sim_work_conservation () =
  (* the L2 must serve at least the data the DMA streams move *)
  let sys = Lazy.force general in
  let r = Sim.run sys (schedules "accumulate") in
  let expected = 2.0 *. 65536.0 *. 2.0 (* read + write of 64K i16 *) in
  Alcotest.(check bool) "l2 bytes >= stream bytes" true (r.l2_bytes >= expected *. 0.9)

let test_sim_vs_model_agreement () =
  let sys = Lazy.force general in
  List.iter
    (fun name ->
      let s = schedules name in
      let est = (Perf.app sys s).total_cycles in
      let sim = float_of_int (Sim.run sys s).total_cycles in
      let ratio = sim /. est in
      Alcotest.(check bool)
        (Printf.sprintf "%s sim/est=%.2f within [0.7, 3]" name ratio)
        true
        (ratio > 0.7 && ratio < 3.0))
    [ "fir"; "mm"; "gemm"; "blur"; "accumulate"; "stencil-2d" ]

let test_one_hot_bypass_helps_single_stream () =
  (* disabling the Figure 11 bypass halves single-stream issue and must not
     make anything faster *)
  let sys = Lazy.force general in
  let s = schedules "channel-ext" in
  let with_bp = Sim.run ~config:Sim.default_config sys s in
  let without_bp =
    Sim.run ~config:{ Sim.default_config with one_hot_bypass = false } sys s
  in
  Alcotest.(check bool) "bypass helps" true
    (without_bp.total_cycles >= with_bp.total_cycles)

let test_more_dram_channels_do_not_hurt () =
  let sys = Lazy.force general in
  let s = schedules "accumulate" in
  let cyc ch =
    let sys' = Sys_adg.with_system sys { sys.system with System.dram_channels = ch } in
    (Sim.run sys' s).total_cycles
  in
  Alcotest.(check bool) "2ch <= 1ch" true (cyc 2 <= cyc 1);
  Alcotest.(check bool) "4ch <= 2ch" true (cyc 4 <= cyc 2)

let test_latency_sensitivity () =
  let sys = Lazy.force general in
  let s = schedules "crs" in
  let fast = Sim.run ~config:{ Sim.default_config with dram_latency = 20 } sys s in
  let slow = Sim.run ~config:{ Sim.default_config with dram_latency = 400 } sys s in
  Alcotest.(check bool) "longer latency, more cycles" true
    (slow.total_cycles >= fast.total_cycles)

let test_reconfigure_cycles_scale () =
  let sys = Lazy.force general in
  let small =
    Sys_adg.make
      (Builder.seed ~caps:(Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ]) ~width_bits:64)
      System.default
  in
  Alcotest.(check bool) "bigger design reconfigures slower" true
    (Sys_adg.reconfigure_cycles sys > Sys_adg.reconfigure_cycles small)

let test_sim_deterministic () =
  let sys = Lazy.force general in
  let s = schedules "bgr2grey" in
  Alcotest.(check int) "same cycles" (Sim.run sys s).total_cycles
    (Sim.run sys s).total_cycles

let test_multi_tenant () =
  let sys = Lazy.force general in
  let a = schedules "fir" and b = schedules "accumulate" in
  let m = Sim.run_multi sys [ (a, 2); (b, 2) ] in
  Alcotest.(check int) "two tenants" 2 (List.length m.tenants);
  List.iter
    (fun (t : Sim.tenant_result) ->
      Alcotest.(check bool) "tenant finished" true (t.t_cycles > 0);
      Alcotest.(check bool) "within makespan" true (t.t_cycles <= m.m_cycles))
    m.tenants;
  (* fewer tiles and shared bandwidth: each tenant is no faster than solo *)
  let solo_a = (Sim.run sys a).total_cycles in
  let cyc k =
    (List.find (fun (t : Sim.tenant_result) -> t.t_kernel = k) m.tenants).t_cycles
  in
  Alcotest.(check bool) "fir no faster with half the tiles" true
    (cyc "fir" >= solo_a)

let test_multi_tenant_rejects_oversubscription () =
  let sys = Lazy.force general in
  let a = schedules "vecmax" in
  Alcotest.check_raises "too many tiles"
    (Invalid_argument "Sim.run_multi: tile shares exceed the system's tiles")
    (fun () -> ignore (Sim.run_multi sys [ (a, 3); (a, 3) ]))

let prop_sim_cycles_bounded_below =
  (* cannot finish faster than firings/tiles at the schedule II *)
  QCheck.Test.make ~name:"sim cycles >= ideal pipeline bound" ~count:1 QCheck.unit
    (fun () ->
      let sys = Lazy.force general in
      List.for_all
        (fun name ->
          let scheds = schedules name in
          let r = Sim.run sys scheds in
          let ideal =
            List.fold_left
              (fun acc (s : Schedule.t) ->
                acc
                +. (s.variant.firings /. float_of_int sys.system.System.tiles
                   *. float_of_int s.ii))
              0.0 scheds
          in
          float_of_int r.total_cycles >= ideal *. 0.99)
        [ "fir"; "mm"; "accumulate"; "vecmax" ])

(* ---------------- simulator golden table and single-loop invariants ---------------- *)

let bits = Printf.sprintf "%.17g"

(* label, total cycles, per-region (or per-tenant) cycles, L2 bytes, DRAM
   bytes; %.17g round-trips a double, so equal strings mean equal bits *)
let sim_row label (r : Sim.t) =
  Printf.sprintf "%s\t%d\t%s\t%s\t%s" label r.total_cycles
    (String.concat ","
       (List.map (fun (p : Sim.region_result) -> string_of_int p.cycles) r.per_region))
    (bits r.l2_bytes) (bits r.dram_bytes)

let multi_row label (m : Sim.multi_result) =
  Printf.sprintf "%s\t%d\t%s\t%s\t%s" label m.m_cycles
    (String.concat ","
       (List.map
          (fun (t : Sim.tenant_result) -> Printf.sprintf "%s:%d" t.t_kernel t.t_cycles)
          m.tenants))
    (bits m.m_l2_bytes) (bits m.m_dram_bytes)

let all_schedules =
  lazy (List.map (fun (k : Ir.kernel) -> (k.name, schedules k.name)) Kernels.all)

let golden_schedules =
  lazy
    (Lazy.force all_schedules
    @ [
        ( Dot_reg.kernel.name,
          match
            Spatial.schedule_app (Lazy.force general)
              (Compile.compile Dot_reg.kernel)
          with
          | Ok s -> s
          | Error e -> Alcotest.failf "dot-reg: %s" e );
      ])

(* Every kernel (the paper's 19 and the register-engine dot product) on
   the general overlay under each setup, then three multi-tenant mixes.
   Odd tile counts give odd copy counts per share; a 400-cycle DRAM
   latency outgrows the default pending-queue size; one L2 bank makes L2
   and DRAM bind in the same cycles; the two-region cholesky switches
   regions while the other tenants run. *)
let golden_rows () =
  let sys = Lazy.force general in
  let scheds = Lazy.force golden_schedules in
  let resize f = Sys_adg.with_system sys (f sys.system) in
  let setups =
    [
      ("default", sys, Sim.default_config);
      ("tiles1", resize (fun p -> { p with System.tiles = 1 }), Sim.default_config);
      ("tiles3", resize (fun p -> { p with System.tiles = 3 }), Sim.default_config);
      ("dram400", sys, { Sim.default_config with dram_latency = 400 });
      ("nobypass", sys, { Sim.default_config with one_hot_bypass = false });
      ("dram4ch", resize (fun p -> { p with System.dram_channels = 4 }), Sim.default_config);
      ("l2bank1", resize (fun p -> { p with System.l2_banks = 1 }), Sim.default_config);
    ]
  in
  List.concat_map
    (fun (tag, sys, config) ->
      List.map (fun (name, s) -> sim_row (tag ^ "/" ^ name) (Sim.run ~config sys s)) scheds)
    setups
  @ List.map
      (fun mix ->
        let label =
          String.concat "+" (List.map (fun (n, k) -> Printf.sprintf "%s:%d" n k) mix)
        in
        multi_row ("multi/" ^ label)
          (Sim.run_multi sys (List.map (fun (n, k) -> (List.assoc n scheds, k)) mix)))
      [
        [ ("fir", 3); ("accumulate", 1) ];
        [ ("fir", 2); ("accumulate", 2) ];
        [ ("cholesky", 1); ("fir", 1); ("accumulate", 2) ];
      ]

(* Regenerate with OVERGEN_SIM_GOLDEN_OUT=<file> dune test, then copy the
   file over test/sim-golden.tsv — only when a change to simulated timing
   is intended. *)
let test_sim_golden_table () =
  Golden.check ~file:"sim-golden.tsv" ~regen_var:"OVERGEN_SIM_GOLDEN_OUT"
    ~header:"# label\ttotal_cycles\tregion_cycles\tl2_bytes\tdram_bytes (general overlay)\n"
    (golden_rows ())

(* The cycle loop allocates nothing: a warm Sim.run allocates only while
   setting up its regions, and that work does not depend on the tile
   count.  On one tile every kernel runs longer (stencil-3d 750k cycles
   instead of 205k), yet allocates exactly the words it does on the
   default system. *)
let test_sim_words_independent_of_cycles () =
  let sys = Lazy.force general in
  let one_tile = Sys_adg.with_system sys { sys.system with System.tiles = 1 } in
  let warm_run sys s =
    ignore (Sim.run sys s);
    let w0 = Gc.minor_words () in
    let r = Sim.run sys s in
    (r.total_cycles, Gc.minor_words () -. w0)
  in
  List.iter
    (fun (name, s) ->
      let cycles, words = warm_run sys s
      and cycles1, words1 = warm_run one_tile s in
      Alcotest.(check bool) (name ^ " runs longer on one tile") true (cycles1 > cycles);
      Alcotest.(check (float 0.0)) (name ^ " words independent of cycles") words words1)
    (Lazy.force all_schedules)

let drain_of (s : Schedule.t) = Dfg.depth s.variant.dfg + Sim.default_config.l2_hit_latency

let test_run_is_one_tenant_run_multi () =
  let sys = Lazy.force general in
  let tiles = sys.system.System.tiles in
  List.iter
    (fun (name, s) ->
      let r = Sim.run sys s in
      let m = Sim.run_multi sys [ (s, tiles) ] in
      let drains = List.fold_left (fun acc d -> acc + drain_of d) 0 s in
      Alcotest.(check int) (name ^ " cycles") r.total_cycles (m.m_cycles + drains);
      Alcotest.(check string) (name ^ " l2 bytes") (bits r.l2_bytes) (bits m.m_l2_bytes);
      Alcotest.(check string) (name ^ " dram bytes") (bits r.dram_bytes)
        (bits m.m_dram_bytes))
    (Lazy.force all_schedules)

let test_deadlock_guard () =
  let sys = Lazy.force general in
  let s = schedules "fir" in
  let config = { Sim.default_config with max_cycles = 10 } in
  let region = (List.hd s).variant.region.Ir.rname in
  Alcotest.check_raises "run names the region"
    (Failure (Printf.sprintf "Sim.run: region %s exceeded 10 cycles (deadlock?)" region))
    (fun () -> ignore (Sim.run ~config sys s));
  Alcotest.check_raises "run_multi has its own message"
    (Failure "Sim.run_multi: exceeded max_cycles (deadlock?)")
    (fun () -> ignore (Sim.run_multi ~config sys [ (s, 2); (schedules "accumulate", 2) ]))

let test_sim_counters () =
  let module Obs = Overgen_obs.Obs in
  let sys = Lazy.force general in
  let tiles = sys.system.System.tiles in
  let s = schedules "stencil-2d" in
  let value name =
    Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name)
  in
  let names =
    [ "overgen_sim_cycles_total"; "overgen_sim_firings_total";
      "overgen_sim_stall_cycles_total"; "overgen_sim_regions_total" ]
  in
  Obs.enable ();
  let before = List.map value names in
  let r = Fun.protect ~finally:Obs.disable (fun () -> Sim.run sys s) in
  let rise = List.map2 (fun n b -> value n - b) names before in
  (* stepped cycles, per-tile firings and II of each region *)
  let regions =
    List.map2
      (fun (p : Sim.region_result) (d : Schedule.t) ->
        (p.cycles - drain_of d, p.firings, max 1 d.ii))
      r.per_region s
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 regions in
  Alcotest.(check (list int)) "cycles, firings, stalls, regions"
    [
      sum (fun (steps, _, _) -> steps);
      tiles * sum (fun (_, fired, _) -> fired);
      sum (fun (steps, fired, ii) -> max 0 ((steps * tiles) - (tiles * fired * ii)));
      List.length s;
    ]
    rise

(* Two domains simulating at once: the simulator's counters are registered
   at load time (forcing one lazy value from two domains raises
   [Lazy.Undefined]), both runs count, and neither disturbs the other. *)
let test_sim_on_two_domains () =
  let module Obs = Overgen_obs.Obs in
  let sys = Lazy.force general in
  let a = schedules "cholesky" and b = schedules "stencil-2d" in
  let seq_a = Sim.run sys a and seq_b = Sim.run sys b in
  let regions = Obs.Metrics.counter Obs.Metrics.default "overgen_sim_regions_total" in
  Obs.enable ();
  let before = Obs.Metrics.counter_value regions in
  let par_a, par_b =
    Fun.protect ~finally:Obs.disable (fun () ->
        let d = Domain.spawn (fun () -> Sim.run sys a) in
        let rb = Sim.run sys b in
        (Domain.join d, rb))
  in
  Alcotest.(check string) "cholesky" (sim_row "cholesky" seq_a) (sim_row "cholesky" par_a);
  Alcotest.(check string) "stencil-2d" (sim_row "stencil-2d" seq_b)
    (sim_row "stencil-2d" par_b);
  Alcotest.(check int) "regions counted" (List.length a + List.length b)
    (Obs.Metrics.counter_value regions - before)

let tests =
  [
    Alcotest.test_case "factors in (0,1]" `Quick test_factors_in_unit_range;
    Alcotest.test_case "equation 1 structure" `Quick test_eq1_structure;
    Alcotest.test_case "tiles scale ipc" `Quick test_more_tiles_more_ipc_until_bandwidth;
    Alcotest.test_case "memory-bound saturates" `Quick test_memory_bound_kernel_saturates;
    Alcotest.test_case "banks help" `Quick test_more_banks_help_l2_bound;
    Alcotest.test_case "objective geomean" `Quick test_objective_geomean;
    Alcotest.test_case "stride waste" `Quick test_stride_waste;
    Alcotest.test_case "sim runs all kernels" `Quick test_sim_runs_everything;
    Alcotest.test_case "sim work conservation" `Quick test_sim_work_conservation;
    Alcotest.test_case "sim vs model" `Quick test_sim_vs_model_agreement;
    Alcotest.test_case "one-hot bypass (Fig 11)" `Quick test_one_hot_bypass_helps_single_stream;
    Alcotest.test_case "dram channels monotone" `Quick test_more_dram_channels_do_not_hurt;
    Alcotest.test_case "latency sensitivity" `Quick test_latency_sensitivity;
    Alcotest.test_case "reconfig scales" `Quick test_reconfigure_cycles_scale;
    Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "multi-tenant" `Quick test_multi_tenant;
    Alcotest.test_case "multi-tenant oversubscription" `Quick
      test_multi_tenant_rejects_oversubscription;
    QCheck_alcotest.to_alcotest prop_sim_cycles_bounded_below;
    Alcotest.test_case "sim golden table" `Quick test_sim_golden_table;
    Alcotest.test_case "sim words do not grow with cycles" `Quick
      test_sim_words_independent_of_cycles;
    Alcotest.test_case "run = one-tenant run_multi" `Quick test_run_is_one_tenant_run_multi;
    Alcotest.test_case "sim deadlock guard" `Quick test_deadlock_guard;
    Alcotest.test_case "sim counters" `Quick test_sim_counters;
    Alcotest.test_case "sim on two domains" `Quick test_sim_on_two_domains;
  ]
