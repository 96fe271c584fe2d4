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

(* Everything the model needs from one region's schedule that does not
   depend on the system parameters.  Byte counts are whole-region totals,
   kept in stream (or array) order so [prepare_region] sums them exactly as
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

(* [Float.min] / [Float.max] without the C call to [signbit]: they differ
   from the plain comparison only on NaN and on the sign of a zero result.
   Every operand here is a non-negative rate, byte count or factor computed
   from positive firings, IIs and tile counts, and the only zero one meets
   is a [+0.] sum against a positive constant, so neither case arises. *)
let[@inline] fmin (x : float) (y : float) = if y > x then x else y
let[@inline] fmax (x : float) (y : float) = if x > y then x else y

(* [Overgen_util.Stats.clamp ~lo:1e-9 ~hi:1.0], in the same order. *)
let[@inline] clamp01 f = fmax 1e-9 (fmin 1.0 f)

(* One region at one tile count: every term of the model except the NoC,
   L2 and DRAM factors, which also depend on the rest of the [System.t]. *)
type region_prep = {
  r_ipc : float;
  duration_tile : float;  (* per-tile cycles of the region, pre-bottleneck *)
  spad_factor : float;
  l2_cons_per_tile : float;
  l2_cons_total : float;
  cold_dram_cons : float;  (* DRAM consumption when the working set fits L2 *)
  r_working_set : int;
  r_ramp_up : float;
}

type prepared = { tiles : float; regions : region_prep array; work : float }

let prepare_region tiles p =
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
        fmin acc (clamp01 (bandwidth /. fmax 1e-9 cons)))
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
  {
    r_ipc = p.ipc;
    duration_tile;
    spad_factor;
    l2_cons_per_tile;
    l2_cons_total = l2_cons_per_tile *. tiles;
    (* only cold misses: footprints once, amortized over the region *)
    cold_dram_cons = float_of_int p.working_set /. duration_tile;
    r_working_set = p.working_set;
    r_ramp_up = p.ramp_up;
  }

let prepare tiles p =
  let tiles = float_of_int tiles in
  {
    tiles;
    regions = Array.of_list (List.map (prepare_region tiles) p.region_profiles);
    work = p.total_work;
  }

(* The system-dependent factors.  Each allocates nothing once inlined, so
   the sweep's per-candidate scoring below boxes no float. *)
let[@inline] noc_factor (sysp : System.t) r =
  clamp01 (float_of_int sysp.noc_bytes /. fmax 1e-9 r.l2_cons_per_tile)

(* the topology's aggregate tile<->L2 bandwidth caps the bank bandwidth
   (the ring's bisection in the topology-specialization extension) *)
let[@inline] l2_factor sysp r =
  let l2_prod =
    float_of_int
      (min (System.l2_bytes_per_cycle sysp) (System.shared_bandwidth sysp))
  in
  clamp01 (l2_prod /. fmax 1e-9 r.l2_cons_total)

(* DRAM serves the L2 misses *)
let[@inline] dram_factor (sysp : System.t) r =
  let dram_cons =
    if r.r_working_set <= sysp.l2_kb * 1024 then r.cold_dram_cons else r.l2_cons_total
  in
  let dram_prod = float_of_int (System.dram_bytes_per_cycle sysp) in
  clamp01 (dram_prod /. fmax 1e-9 dram_cons)

let[@inline] bottleneck r ~noc ~l2 ~dram = fmin r.spad_factor (fmin noc (fmin l2 dram))
let[@inline] cycles r bottleneck = (r.duration_tile /. bottleneck) +. r.r_ramp_up
let[@inline] app_ipc work total_cycles = work /. fmax 1.0 total_cycles

let finish_region sysp tiles r =
  let noc_factor = noc_factor sysp r
  and l2_factor = l2_factor sysp r
  and dram_factor = dram_factor sysp r in
  let bottleneck = bottleneck r ~noc:noc_factor ~l2:l2_factor ~dram:dram_factor in
  {
    ipc_single = r.r_ipc;
    spad_factor = r.spad_factor;
    noc_factor;
    l2_factor;
    dram_factor;
    bottleneck;
    est_ipc = r.r_ipc *. tiles *. bottleneck;
    cycles = cycles r bottleneck;
  }

let finish sysp p =
  let regions = List.map (finish_region sysp p.tiles) (Array.to_list p.regions) in
  let total_cycles = List.fold_left (fun acc r -> acc +. r.cycles) 0.0 regions in
  { regions; total_cycles; app_ipc = app_ipc p.work total_cycles }

let evaluate (sysp : System.t) p = finish sysp (prepare sysp.tiles p)

(* [finish]'s [app_ipc] for every app, folded as [Stats.geomean] folds
   them, without building a region record or boxing a float. *)
let prepared_objective sysp apps =
  let n = Array.length apps in
  if n = 0 then 0.0
  else begin
    let log_sum = ref 0.0 in
    for a = 0 to n - 1 do
      let p = apps.(a) in
      let total_cycles = ref 0.0 in
      for i = 0 to Array.length p.regions - 1 do
        let r = p.regions.(i) in
        let b =
          bottleneck r ~noc:(noc_factor sysp r) ~l2:(l2_factor sysp r)
            ~dram:(dram_factor sysp r)
        in
        total_cycles := !total_cycles +. cycles r b
      done;
      log_sum := !log_sum +. log (fmax 1e-6 (app_ipc p.work !total_cycles))
    done;
    exp (!log_sum /. float_of_int n)
  end

let app (sys : Sys_adg.t) schedules = evaluate sys.system (profile sys.adg schedules)

let objective (sys : Sys_adg.t) apps =
  prepared_objective sys.system
    (Array.of_list
       (List.map (fun s -> prepare sys.system.tiles (profile sys.adg s)) apps))
