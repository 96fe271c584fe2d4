open Overgen_adg
open Overgen_mdfg
open Overgen_scheduler

type region_perf = {
  ipc_single : float;
  spad_factor : float;
  noc_factor : float;
  l2_factor : float;
  dram_factor : float;
  bottleneck : float;
  est_ipc : float;
  cycles : float;
}

type app_perf = {
  regions : region_perf list;
  total_cycles : float;
  app_ipc : float;
}

let line_bytes = 64

(* Fraction of fetched line bytes actually used by a strided stream. *)
let stride_waste (s : Stream.t) =
  match s.access with
  | Stream.Linear { stride } ->
    let line_elems = max 1 (line_bytes / s.elem_bytes) in
    float_of_int (min (max 1 stride) line_elems)
  | Stream.Indirect _ -> 2.0

let clamp01 f = Overgen_util.Stats.clamp ~lo:1e-9 ~hi:1.0 f

(* Everything the model needs from one region's schedule that does not
   depend on the system parameters.  Byte counts are whole-region totals,
   kept in stream (or array) order so [eval_region] sums them exactly as
   the per-stream formulas always have. *)
type region_profile = {
  ipc : float;
  ii : float;
  firings : float;
  spad_streams : (float * float list) list;
      (* per scratchpad engine: bandwidth, bytes of each stream it serves *)
  dma_streams : (float * float) list;  (* bytes, stride waste *)
  spad_fills : (float * bool) list;    (* footprint bytes, partitioned *)
  rec_bytes : float list;
  working_set : int;
  ramp_up : float;
}

type profile = { region_profiles : region_profile list; total_work : float }

let region_profile adg (sched : Schedule.t) =
  let v = sched.variant in
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
  let spad_engines = ref [] in
  List.iter
    (fun (s : Stream.t) ->
      if on_spad s && not (Schedule.is_rec sched s) then
        match List.assoc_opt s.array sched.array_engine with
        | Some e ->
          let prior = Option.value ~default:[] (List.assoc_opt e !spad_engines) in
          spad_engines :=
            (e, Stream.mem_bytes s ~use_rec:false :: prior)
            :: List.remove_assoc e !spad_engines
        | None -> ())
    v.streams;
  let spad_streams =
    List.filter_map
      (fun (e, rev_bytes) ->
        match engine_kind e with
        | Some en -> Some (float_of_int en.Comp.bandwidth, List.rev rev_bytes)
        | None -> None)
      !spad_engines
  in
  (* --- shared levels: DMA streams plus scratchpad fill --- *)
  let dma_streams =
    List.filter_map
      (fun (s : Stream.t) ->
        if on_spad s || Schedule.is_rec sched s then None
        else
          match List.assoc_opt s.array sched.array_engine with
          | Some e -> (
            match engine_kind e with
            | Some { Comp.kind = Comp.Dma; _ } ->
              Some (Stream.mem_bytes s ~use_rec:false, stride_waste s)
            | Some _ | None -> None)
          | None -> None)
      v.streams
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
  let spad_fills =
    List.filter_map
      (fun (a : Stream.array_info) ->
        if List.mem a.name spad_arrays then
          Some (float_of_int (a.elems * a.elem_bytes), array_partitioned a.name)
        else None)
      v.arrays
  in
  (* recurrence fill/drain trickle *)
  let rec_bytes =
    List.filter_map
      (fun (s : Stream.t) ->
        if Schedule.is_rec sched s then Some (Stream.mem_bytes s ~use_rec:true)
        else None)
      v.streams
  in
  {
    ipc = Schedule.ipc sched;
    ii = float_of_int (max 1 sched.ii);
    firings = Float.max 1.0 v.firings;
    spad_streams;
    dma_streams;
    spad_fills;
    rec_bytes;
    working_set =
      List.fold_left
        (fun acc (a : Stream.array_info) -> acc + (a.elems * a.elem_bytes))
        0 v.arrays;
    ramp_up = float_of_int (Dfg.depth v.dfg + 100);
  }

let profile adg schedules =
  {
    region_profiles = List.map (region_profile adg) schedules;
    total_work =
      List.fold_left
        (fun acc (sched : Schedule.t) ->
          acc
          +. (float_of_int (Dfg.inst_count sched.variant.dfg + Schedule.mem_ops sched)
             *. sched.variant.firings))
        0.0 schedules;
  }

let eval_region (sysp : System.t) p =
  let tiles = float_of_int sysp.tiles in
  (* Per-tile duration of the region in cycles, pre-bottleneck. *)
  let duration_tile = p.firings /. tiles *. p.ii in
  (* each tile's private spad serves that tile's share of firings *)
  let spad_factor =
    List.fold_left
      (fun acc (bandwidth, streams) ->
        let cons =
          List.fold_left
            (fun cons bytes -> (bytes /. tiles /. duration_tile) +. cons)
            0.0 streams
        in
        Float.min acc (clamp01 (bandwidth /. Float.max 1e-9 cons)))
      1.0 p.spad_streams
  in
  let dma_rate =
    List.fold_left
      (fun acc (bytes, waste) -> acc +. (bytes /. tiles *. waste /. duration_tile))
      0.0 p.dma_streams
  in
  let fill_rate =
    List.fold_left
      (fun acc (bytes, partitioned) ->
        let per_tile = if partitioned then bytes /. tiles else bytes in
        acc +. (per_tile /. duration_tile))
      0.0 p.spad_fills
  in
  let rec_rate =
    List.fold_left
      (fun acc bytes -> acc +. (bytes /. tiles /. duration_tile))
      0.0 p.rec_bytes
  in
  let l2_cons_per_tile = dma_rate +. fill_rate +. rec_rate in
  let noc_factor =
    clamp01 (float_of_int sysp.noc_bytes /. Float.max 1e-9 l2_cons_per_tile)
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
  let dram_cons =
    if p.working_set <= sysp.l2_kb * 1024 then
      (* only cold misses: footprints once, amortized over the region *)
      float_of_int p.working_set /. duration_tile
    else l2_cons_total
  in
  let dram_prod = float_of_int (System.dram_bytes_per_cycle sysp) in
  let dram_factor = clamp01 (dram_prod /. Float.max 1e-9 dram_cons) in
  let bottleneck =
    Float.min spad_factor (Float.min noc_factor (Float.min l2_factor dram_factor))
  in
  {
    ipc_single = p.ipc;
    spad_factor;
    noc_factor;
    l2_factor;
    dram_factor;
    bottleneck;
    est_ipc = p.ipc *. tiles *. bottleneck;
    cycles = (duration_tile /. bottleneck) +. p.ramp_up;
  }

let evaluate sysp p =
  let regions = List.map (eval_region sysp) p.region_profiles in
  let total_cycles = List.fold_left (fun acc r -> acc +. r.cycles) 0.0 regions in
  { regions; total_cycles; app_ipc = p.total_work /. Float.max 1.0 total_cycles }

let objective_of sysp profiles =
  match profiles with
  | [] -> 0.0
  | _ ->
    Overgen_util.Stats.geomean
      (List.map (fun p -> Float.max 1e-6 (evaluate sysp p).app_ipc) profiles)

let app (sys : Sys_adg.t) schedules = evaluate sys.system (profile sys.adg schedules)

let objective (sys : Sys_adg.t) apps =
  objective_of sys.system (List.map (profile sys.adg) apps)
