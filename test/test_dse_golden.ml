(* The DSE golden table: exact objectives, stats and modeled hours of a few
   DSP-suite explorations, plus a digest of every kernel's schedule (or its
   error) from the greedy mapper on the general overlay and on each run's
   best design.
   Any change to the explorer, the scheduler, the perf model or the MLP
   that moves a single bit of a result shows up here. *)

open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler
module Dse = Overgen_dse.Dse
module Predict = Overgen_mlp.Predict
module Rng = Overgen_util.Rng

let model () = Models.trained 7
let apps = lazy (Dse.compile_apps ~tuned:false (Kernels.of_suite Suite.Dsp))

let bits = Printf.sprintf "%.17g"

(* (seed, islands): 20 iterations each, the perfbench [dse] budget.  The
   three-island run puts more island jobs than domains on the pool, so
   islands nest their per-app maps on an oversubscribed pool. *)
let runs =
  [ (1000, 1); (1005, 1); (1006, 1); (1014, 1); (1015, 1); (1001, 2); (1003, 3) ]

let explore (seed, islands) =
  Dse.explore
    ~config:{ Dse.default_config with seed; iterations = 20; islands }
    ~model:(model ()) (Lazy.force apps)

let results = lazy (List.map (fun r -> (r, explore r)) runs)

(* Canonical dump of everything a schedule binds, hashed. *)
let schedule_digest (s : Schedule.t) =
  let b = Buffer.create 512 in
  let ids l = String.concat "," (List.map string_of_int l) in
  let pairs l = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l) in
  Printf.bprintf b "variant %s\n" (Compile.hash_variant s.variant);
  Schedule.Imap.iter (fun k v -> Printf.bprintf b "inst %d=%d\n" k v) s.inst_pe;
  Schedule.Imap.iter (fun k v -> Printf.bprintf b "port %d=%d\n" k v) s.port_map;
  Printf.bprintf b "arrays %s\n" (pairs s.array_engine);
  Printf.bprintf b "rec %s\n" (pairs (List.map (fun (k, v) -> (string_of_int k, v)) s.rec_streams));
  Printf.bprintf b "reg %s\n" (pairs (List.map (fun (k, v) -> (string_of_int k, v)) s.reg_streams));
  List.iter
    (fun ((src, dst), (r : Schedule.route)) ->
      Printf.bprintf b "route %d->%d [%s] +%d\n" src dst (ids r.hops) r.delay)
    s.routes;
  Printf.bprintf b "share %d skew %d ii %d\n" s.max_link_share s.skew_penalty s.ii;
  Digest.to_hex (Digest.string (Buffer.contents b))

let app_digest sys (c : Compile.compiled) =
  match Spatial.schedule_app sys c with
  | Ok scheds -> String.concat "," (List.map schedule_digest scheds)
  | Error e -> "error " ^ e

let run_label (seed, islands) = Printf.sprintf "%d/i%d" seed islands

let golden_rows () =
  let general = Builder.general_overlay () in
  let all = List.map (fun k -> Compile.compile k) Kernels.all in
  let results = Lazy.force results in
  List.map
    (fun (r, (res : Dse.result)) ->
      let s = res.stats in
      Printf.sprintf "dse/%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s" (run_label r)
        (bits res.best.objective) s.accepted s.invalid s.repaired s.incremental
        s.rescheduled (bits res.modeled_hours))
    results
  @ List.map
      (fun (c : Compile.compiled) ->
        Printf.sprintf "general/%s\t%s" c.kname (app_digest general c))
      all
  @ List.concat_map
      (fun (r, (res : Dse.result)) ->
        List.map
          (fun (c : Compile.compiled) ->
            Printf.sprintf "best%s/%s\t%s" (run_label r) c.kname
              (app_digest res.best.sys c))
          all)
      results

(* Regenerate with OVERGEN_DSE_GOLDEN_OUT=<file> dune test, then copy the
   file over test/dse-golden.tsv — only when a change to DSE results is
   intended. *)
let test_dse_golden_table () =
  Golden.check ~file:"dse-golden.tsv" ~regen_var:"OVERGEN_DSE_GOLDEN_OUT"
    ~header:
      "# dse/<seed>/i<islands>\tobjective\taccepted\tinvalid\trepaired\tincremental\t\
       rescheduled\tmodeled_hours (DSP suite, 20 iterations, model seed 7)\n\
       # <overlay>/<kernel>\tschedule_app digest per region\n"
    (golden_rows ())

(* Sub-seed 42000 used to raise: repair's slow path claimed a placement on
   a PE the mutation had pruned beyond the graph's id range. *)
let test_explore_42000_returns () =
  let r = explore (42000, 1) in
  Alcotest.(check int) "every iteration ran" 20 (List.length r.trace);
  Alcotest.(check bool) "positive objective" true (r.best.objective > 0.0)

(* ---------------- perf model: profile + evaluation = per-stream formulas ---------------- *)

(* The reference: the bottleneck model as one function of (sysADG,
   schedule), every stream's rate computed in place.  The profile/evaluate
   split must reproduce it bit for bit. *)
module Per_stream = struct
  open Overgen_mdfg
  module Perf = Overgen_perf.Perf

  let clamp01 f = Overgen_util.Stats.clamp ~lo:1e-9 ~hi:1.0 f

  let region (sys : Sys_adg.t) (sched : Schedule.t) =
    let adg = sys.adg in
    let sysp = sys.system in
    let v = sched.variant in
    let tiles = float_of_int sysp.System.tiles in
    let ii = float_of_int (max 1 sched.ii) in
    let firings = Float.max 1.0 v.firings in
    let ipc_single = Schedule.ipc sched in
    (* Per-tile duration of the region in cycles, pre-bottleneck. *)
    let duration_tile = firings /. tiles *. ii in
    let engine_kind e =
      match Adg.comp adg e with
      | Some (Comp.Engine en) -> Some en
      | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _) | None
        -> None
    in
    let spad_arrays =
      List.filter_map
        (fun (name, e) ->
          match engine_kind e with
          | Some { Comp.kind = Comp.Spad; _ } -> Some name
          | Some _ | None -> None)
        sched.array_engine
    in
    let on_spad (s : Stream.t) = List.mem s.array spad_arrays in
    (* --- scratchpad level: per engine, private to a tile --- *)
    let spad_cons = Hashtbl.create 4 in
    List.iter
      (fun (s : Stream.t) ->
        if on_spad s && not (Schedule.is_rec sched s) then
          match List.assoc_opt s.array sched.array_engine with
          | Some e ->
            (* each tile's private spad serves that tile's share of firings *)
            let bytes = Stream.mem_bytes s ~use_rec:false /. tiles in
            Hashtbl.replace spad_cons e
              ((bytes /. duration_tile)
              +. Option.value ~default:0.0 (Hashtbl.find_opt spad_cons e))
          | None -> ())
      v.streams;
    let spad_factor =
      Hashtbl.fold
        (fun e cons acc ->
          match engine_kind e with
          | Some en ->
            Float.min acc (clamp01 (float_of_int en.Comp.bandwidth /. Float.max 1e-9 cons))
          | None -> acc)
        spad_cons 1.0
    in
    (* --- shared levels: DMA streams plus scratchpad fill --- *)
    let dma_rate =
      List.fold_left
        (fun acc (s : Stream.t) ->
          if on_spad s || Schedule.is_rec sched s then acc
          else
            match List.assoc_opt s.array sched.array_engine with
            | Some e -> (
              match engine_kind e with
              | Some { Comp.kind = Comp.Dma; _ } ->
                let bytes = Stream.mem_bytes s ~use_rec:false /. tiles in
                acc +. (bytes *. Perf.stride_waste s /. duration_tile)
              | Some _ | None -> acc)
            | None -> acc)
        0.0 v.streams
    in
    (* Scratchpad fill/drain.  A partitioned array's slices land in each
       tile's spad (footprint total); a shared array must be copied whole into
       every tile's spad — there is no DRAM->spad broadcast, which is exactly
       the paper's ellpack outlier. *)
    let array_partitioned name =
      List.for_all
        (fun (s : Stream.t) -> s.array <> name || s.partitioned)
        v.streams
    in
    let fill_rate =
      List.fold_left
        (fun acc (a : Stream.array_info) ->
          if List.mem a.name spad_arrays then
            let bytes = float_of_int (a.elems * a.elem_bytes) in
            let per_tile = if array_partitioned a.name then bytes /. tiles else bytes in
            acc +. (per_tile /. duration_tile)
          else acc)
        0.0 v.arrays
    in
    (* recurrence fill/drain trickle *)
    let rec_rate =
      List.fold_left
        (fun acc (s : Stream.t) ->
          if Schedule.is_rec sched s then
            acc +. (Stream.mem_bytes s ~use_rec:true /. tiles /. duration_tile)
          else acc)
        0.0 v.streams
    in
    let l2_cons_per_tile = dma_rate +. fill_rate +. rec_rate in
    let noc_factor =
      clamp01 (float_of_int sysp.System.noc_bytes /. Float.max 1e-9 l2_cons_per_tile)
    in
    let l2_cons_total = l2_cons_per_tile *. tiles in
    (* the topology's aggregate tile<->L2 bandwidth caps the bank bandwidth
       (the ring's bisection in the topology-specialization extension) *)
    let l2_prod =
      float_of_int
        (min (System.l2_bytes_per_cycle sysp) (System.shared_bandwidth sysp))
    in
    let l2_factor = clamp01 (l2_prod /. Float.max 1e-9 l2_cons_total) in
    (* --- DRAM: L2 misses --- *)
    let working_set =
      List.fold_left
        (fun acc (a : Stream.array_info) -> acc + (a.elems * a.elem_bytes))
        0 v.arrays
    in
    let fits_l2 = working_set <= sysp.System.l2_kb * 1024 in
    let dram_cons =
      if fits_l2 then
        (* only cold misses: footprints once, amortized over the region *)
        float_of_int working_set /. duration_tile
      else l2_cons_total
    in
    let dram_prod = float_of_int (System.dram_bytes_per_cycle sysp) in
    let dram_factor = clamp01 (dram_prod /. Float.max 1e-9 dram_cons) in
    let bottleneck =
      Float.min spad_factor (Float.min noc_factor (Float.min l2_factor dram_factor))
    in
    let est_ipc = ipc_single *. tiles *. bottleneck in
    let ramp_up = float_of_int (Dfg.depth v.dfg + 100) in
    let cycles = (duration_tile /. bottleneck) +. ramp_up in
    {
      Perf.ipc_single;
      spad_factor;
      noc_factor;
      l2_factor;
      dram_factor;
      bottleneck;
      est_ipc;
      cycles;
    }

  let app sys schedules =
    let regions = List.map (region sys) schedules in
    let total_cycles = List.fold_left (fun acc r -> acc +. r.Perf.cycles) 0.0 regions in
    let total_work =
      List.fold_left2
        (fun acc (sched : Schedule.t) _ ->
          acc
          +. (float_of_int (Dfg.inst_count sched.variant.dfg + Schedule.mem_ops sched)
             *. sched.variant.firings))
        0.0 schedules regions
    in
    let app_ipc = total_work /. Float.max 1.0 total_cycles in
    { Perf.regions; total_cycles; app_ipc }

  let objective sys apps =
    match apps with
    | [] -> 0.0
    | _ ->
      let ipcs = List.map (fun scheds -> Float.max 1e-6 (app sys scheds).Perf.app_ipc) apps in
      Overgen_util.Stats.geomean ipcs
end

module Perf = Overgen_perf.Perf

let same_float what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %.17g <> %.17g" what a b

let same_app what (a : Perf.app_perf) (b : Perf.app_perf) =
  same_float (what ^ " total_cycles") a.total_cycles b.total_cycles;
  same_float (what ^ " app_ipc") a.app_ipc b.app_ipc;
  List.iter2
    (fun (x : Perf.region_perf) (y : Perf.region_perf) ->
      List.iter2
        (fun (field, u) v -> same_float (what ^ " " ^ field) u v)
        [ ("ipc_single", x.ipc_single); ("spad", x.spad_factor); ("noc", x.noc_factor);
          ("l2", x.l2_factor); ("dram", x.dram_factor); ("bottleneck", x.bottleneck);
          ("est_ipc", x.est_ipc); ("cycles", x.cycles) ]
        [ y.ipc_single; y.spad_factor; y.noc_factor; y.l2_factor; y.dram_factor;
          y.bottleneck; y.est_ipc; y.cycles ])
    a.regions b.regions

(* The nested system DSE as a plain scan: every candidate's full SoC
   resources summed as [Predict.predict_full] sums them, its objective from
   the per-stream reference, and the first of equal scores kept. *)
let reference_system_dse ~device ~model systems adg apps =
  let open Overgen_fpga in
  let usable = Device.usable device in
  let tile_res = Predict.predict_accel model adg in
  List.fold_left
    (fun best (sysp : System.t) ->
      let predicted = Res.add (Res.scale sysp.tiles tile_res) (Oracle.system_overhead sysp) in
      if not (Res.fits predicted ~within:usable) then best
      else
        let obj = Per_stream.objective (Sys_adg.make adg sysp) apps in
        let lut_frac =
          float_of_int (tile_res.lut + (predicted.lut / max 1 sysp.tiles))
          /. float_of_int (max 1 usable.lut)
        in
        let score =
          obj
          *. (1.0 +. (0.02 *. (1.0 -. lut_frac)))
          *. (1.0 +. (0.004 *. float_of_int sysp.tiles))
        in
        match best with
        | Some (bs, _, _, _) when bs >= score -> best
        | Some _ | None -> Some (score, sysp, obj, predicted))
    None systems

(* Every candidate system, crossbar and ring, on the general overlay (all
   kernels) and on each golden run's best design (its DSP schedules): the
   model per candidate, and the sweep's pick over all of them. *)
let test_profile_matches_per_stream () =
  let general = Builder.general_overlay () in
  let general_apps =
    List.map
      (fun k ->
        match Spatial.schedule_app general (Compile.compile k) with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" k.Ir.name e)
      Kernels.all
  in
  (* the same schedules with no array bound to an engine: no memory
     traffic at all, so every floor of the model applies *)
  let unbound =
    List.map
      (List.map (fun (s : Schedule.t) -> { s with array_engine = []; rec_streams = [] }))
      general_apps
  in
  same_float "no applications" 0.0 (Perf.objective general []);
  let designs =
    ("general", general.adg, general_apps)
    :: ("general-unbound", general.adg, unbound)
    :: List.map
         (fun (r, (res : Dse.result)) ->
           ("best" ^ run_label r, res.best.sys.adg, res.best.per_app))
         (Lazy.force results)
  in
  let candidates = System.candidates ~topologies:[ System.Crossbar; System.Ring ] () in
  let systems =
    Array.of_list
      (List.map (fun s -> (s, Overgen_fpga.Oracle.system_overhead s)) candidates)
  in
  let model = model () in
  List.iter
    (fun (label, adg, apps) ->
      let profiles = List.map (Perf.profile adg) apps in
      List.iter
        (fun sysp ->
          let sys = Sys_adg.make adg sysp in
          let what = label ^ " " ^ System.describe sysp in
          let want = Per_stream.objective sys apps in
          same_float (what ^ " objective") want (Perf.objective sys apps);
          List.iter2
            (fun scheds p ->
              same_app what (Per_stream.app sys scheds) (Perf.evaluate sysp p);
              same_app what (Per_stream.app sys scheds) (Perf.app sys scheds))
            apps profiles)
        candidates;
      let no_room =
        { Overgen_fpga.Device.default with capacity = Overgen_fpga.Res.zero }
      in
      List.iter
        (fun device ->
          match
            ( reference_system_dse ~device ~model candidates adg apps,
              Dse.system_dse ~device ~model systems adg apps )
          with
          | None, None ->
            if device != no_room then Alcotest.failf "%s: no candidate fits" label
          | Some (s, sysp, o, r), Some (s', sysp', o', r') ->
            same_float (label ^ " sweep score") s s';
            same_float (label ^ " sweep objective") o o';
            Alcotest.(check string) (label ^ " sweep system") (System.describe sysp)
              (System.describe sysp');
            Alcotest.(check bool) (label ^ " sweep system and resources") true
              (sysp = sysp' && r = r')
          | Some _, None | None, Some _ -> Alcotest.failf "%s: only one sweep fits" label)
        [ Overgen_fpga.Device.default; no_room ])
    designs

(* ---------------- MLP memo ---------------- *)

let random_mesh rng =
  let pick l = Rng.choose rng l in
  let caps =
    Op.Cap.of_ops
      (List.filter (fun _ -> Rng.bool rng) [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Min; Op.Acc ])
      (pick [ [ Dtype.I16 ]; [ Dtype.I64 ]; [ Dtype.F32; Dtype.F64 ]; Dtype.all ])
  in
  let widths n = List.init n (fun _ -> pick [ 8; 16; 32; 64 ]) in
  Builder.mesh ~rows:(1 + Rng.int rng 4) ~cols:(1 + Rng.int rng 5) ~caps
    ~sw_width_bits:(pick [ 64; 128; 256 ]) ~width_bits:(pick [ 32; 64 ])
    ~in_port_widths:(widths (1 + Rng.int rng 6))
    ~out_port_widths:(widths (1 + Rng.int rng 4))
    ~engines:
      [ Comp.default_engine Comp.Dma; Comp.default_engine Comp.Spad;
        Comp.default_engine Comp.Rec ]

(* One memo across all meshes, so later meshes mostly hit. *)
let test_memo_matches_fresh_prediction () =
  let model = model () in
  let memo = Predict.memo () in
  let rng = Rng.create 13 in
  for i = 1 to 40 do
    let adg = random_mesh rng in
    let want = Predict.predict_accel model adg in
    List.iter
      (fun pass ->
        if Predict.predict_accel ~memo model adg <> want then
          Alcotest.failf "mesh %d, %s pass: memoized prediction differs" i pass)
      [ "first"; "second" ]
  done

let tests =
  [
    Alcotest.test_case "dse golden table" `Quick test_dse_golden_table;
    Alcotest.test_case "explore sub-seed 42000 returns" `Quick test_explore_42000_returns;
    Alcotest.test_case "perf profile = per-stream formulas" `Quick
      test_profile_matches_per_stream;
    Alcotest.test_case "mlp memo = fresh prediction" `Quick
      test_memo_matches_fresh_prediction;
  ]
