open Overgen_workload
open Overgen_mdfg
open Overgen_fpga

type pragmas = { unroll : int; partition : int }

type design = {
  ii : int;
  cycles : float;
  freq_mhz : float;
  res : Res.t;
}

let hls_run_hours = 1.2
let dram_gbps = 9.6 (* one channel, effective *)
let stage_limit_bytes = 256 * 1024

let log2i n = int_of_float (Float.log2 (float_of_int (max 1 n)))

let freq_of pragmas =
  let f =
    280.0 -. (18.0 *. float_of_int (log2i pragmas.unroll))
    -. (8.0 *. float_of_int (log2i pragmas.partition))
  in
  Overgen_util.Stats.clamp ~lo:140.0 ~hi:280.0 f

let region_ii ~tuned (r : Ir.region) =
  match r.hls with
  | Ir.Clean -> 1
  | Ir.Variable_trip { untuned_ii; tuned_ii } -> if tuned then tuned_ii else untuned_ii
  | Ir.Strided { untuned_ii } -> if tuned then 1 else untuned_ii

let evaluate ?(dram_channels = 1) ~tuned (k : Ir.kernel) pragmas =
  let regions = Kernels.regions_for ~tuned k in
  let freq = freq_of pragmas in
  let dram_bytes_per_cycle =
    dram_gbps *. float_of_int dram_channels *. 1000.0 /. freq
  in
  let eval_region (r : Ir.region) =
    let v = Compile.compile_region k r ~tuned ~unroll:1 in
    let ii0 = region_ii ~tuned r in
    (* Untuned code patterns also defeat unrolling: a data-dependent trip
       count cannot be unrolled, and un-coalesced strided loads serialize on
       the memory interface no matter the parallel factor (paper Q2). *)
    let u_eff =
      match (tuned, r.hls) with
      | false, Ir.Variable_trip _ -> min pragmas.unroll 2
      | true, Ir.Variable_trip _ ->
        (* guarding the variable bound with in-loop conditions restores
           pipelining but keeps a carried dependence: unrolling saturates *)
        min pragmas.unroll 8
      | _, _ -> pragmas.unroll
    in
    let staged (a : Stream.array_info) = a.elems * a.elem_bytes <= stage_limit_bytes in
    (* BRAM port pressure per staged array *)
    let ii_mem =
      List.fold_left
        (fun acc (a : Stream.array_info) ->
          if not (staged a) then acc
          else
            let accesses =
              List.fold_left
                (fun n (s : Stream.t) -> if s.array = a.name then n + s.lanes else n)
                0 v.streams
            in
            max acc
              (Overgen_util.Stats.div_ceil (accesses * u_eff)
                 (2 * pragmas.partition)))
        1 v.arrays
    in
    let ii_eff = max ii0 ii_mem in
    let compute =
      (v.iters /. float_of_int u_eff *. float_of_int ii_eff) +. 50.0
    in
    let offchip_bytes =
      List.fold_left
        (fun acc (a : Stream.array_info) ->
          let streams = List.filter (fun (s : Stream.t) -> s.array = a.name) v.streams in
          if staged a then
            (* staged: fill once, drain if written *)
            let fp = float_of_int (a.elems * a.elem_bytes) in
            acc +. if a.read_only then fp else 2.0 *. fp
          else
            List.fold_left
              (fun acc (s : Stream.t) ->
                let elems =
                  if k.window_reuse && tuned then float_of_int s.reuse.footprint
                  else s.reuse.traffic
                in
                acc +. (elems *. float_of_int s.elem_bytes))
              acc streams)
        0.0 v.arrays
    in
    let mem_cycles = offchip_bytes /. dram_bytes_per_cycle in
    let cycles = Float.max compute mem_cycles +. 64.0 in
    (* resources *)
    let fu =
      List.fold_left
        (fun acc (op, n) -> Res.add acc (Res.scale (n * pragmas.unroll) (Oracle.fu_cost op k.dtype)))
        Res.zero
        (Dfg.op_histogram v.dfg)
    in
    let brams =
      List.fold_left
        (fun acc (a : Stream.array_info) ->
          if staged a then
            acc
            + (Overgen_util.Stats.div_ceil (a.elems * a.elem_bytes) 4608
              * max 1 (pragmas.partition / 4))
          else acc)
        0 v.arrays
    in
    let control =
      { Res.lut = 3000 + (500 * List.length v.streams); ff = 3500; bram = 2; dsp = 0 }
    in
    (ii_eff, cycles, Res.add fu (Res.add control { Res.lut = 0; ff = 0; bram = brams; dsp = 0 }))
  in
  let results = List.map eval_region regions in
  let ii = List.fold_left (fun acc (i, _, _) -> max acc i) 1 results in
  let cycles = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 results in
  let res =
    List.fold_left (fun acc (_, _, r) -> Res.add acc r) Res.zero results
  in
  (* the AXI shell and DDR controller of an HLS design *)
  let res = Res.add res { Res.lut = 30000; ff = 40000; bram = 48; dsp = 0 } in
  { ii; cycles; freq_mhz = freq; res }

let runtime_ms d = d.cycles /. (d.freq_mhz *. 1000.0)

type explore = {
  best : design;
  candidates : int;
  dse_hours : float;
  synth_hours : float;
}

(* AutoDSE's pre-built database covers common kernels (paper: gemm). *)
let database = [ ("gemm", { unroll = 16; partition = 16 }) ]

let autodse ?(dram_channels = 1) ?(device = Device.default) ~tuned (k : Ir.kernel) =
  match List.assoc_opt k.name database with
  | Some p ->
    let best = evaluate ~dram_channels ~tuned k p in
    {
      best;
      candidates = 1;
      dse_hours = hls_run_hours;
      synth_hours = Oracle.synthesis_hours ~device best.res *. 1.2;
    }
  | None ->
    let inner_trip =
      List.fold_left
        (fun acc (r : Ir.region) -> max acc (Ir.trip_max (Ir.innermost r).trip))
        1
        (Kernels.regions_for ~tuned k)
    in
    let budget = Res.scale_f 0.85 device.Device.capacity in
    let fits d = Res.fits d.res ~within:budget in
    let candidates = ref 0 in
    let eval p =
      incr candidates;
      evaluate ~dram_channels ~tuned k p
    in
    let rec climb current d =
      (* Bottleneck-guided: grow the pragma that limits performance. *)
      let max_unroll = if tuned then 64 else 16 in
      let try_next p' =
        if p'.unroll > min max_unroll inner_trip || p'.partition > 16 then None
        else
          let d' = eval p' in
          if fits d' && runtime_ms d' < runtime_ms d *. 0.98 then Some (p', d')
          else None
      in
      let next =
        let attempts =
          if d.ii > region_ii ~tuned (List.hd (Kernels.regions_for ~tuned k))
          then
            (* on-chip port bound: partition first *)
            [
              { current with partition = current.partition * 2 };
              { unroll = current.unroll * 2; partition = current.partition * 2 };
            ]
          else
            [
              { current with unroll = current.unroll * 2 };
              { current with partition = current.partition * 2 };
              { unroll = current.unroll * 2; partition = current.partition * 2 };
            ]
        in
        List.fold_left
          (fun acc p' -> match acc with Some _ -> acc | None -> try_next p')
          None attempts
      in
      match next with
      | Some (p', d') -> climb p' d'
      | None -> d
    in
    let p0 = { unroll = 1; partition = 1 } in
    let best = climb p0 (eval p0) in
    {
      best;
      candidates = !candidates;
      dse_hours = float_of_int !candidates *. hls_run_hours;
      synth_hours = Oracle.synthesis_hours ~device best.res *. 1.2;
    }
