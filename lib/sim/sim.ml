open Overgen_adg
open Overgen_mdfg
open Overgen_scheduler
module Obs = Overgen_obs.Obs

(* Simulator counters on the shared default registry; incremented once per
   simulated region (never inside the cycle loop), so the enabled-path
   overhead is independent of region length. Registered at load time, not
   lazily: simulations run on several domains at once, and forcing one lazy
   value from two domains raises. *)
let counter name help = Obs.Metrics.counter Obs.Metrics.default name ~help

let m_regions = counter "overgen_sim_regions_total" "simulated regions"

let m_cycles =
  counter "overgen_sim_cycles_total" "simulated cycles, summed over regions"

let m_firings =
  counter "overgen_sim_firings_total" "DFG instance firings, summed over tiles"

let m_stalls =
  counter "overgen_sim_stall_cycles_total"
    "tile-cycles not covered by a firing's II occupancy"

type config = {
  one_hot_bypass : bool;
  l2_hit_latency : int;
  dram_latency : int;
  spad_latency : int;
  mshr_per_bank : int;
  rob_bytes : float;      (* per-engine reorder-buffer capacity: how far a
                             stream may run ahead of consumption *)
  max_cycles : int;
}

let default_config =
  {
    one_hot_bypass = true;
    l2_hit_latency = 20;
    dram_latency = 100;
    spad_latency = 2;
    mshr_per_bank = 32;
    rob_bytes = 1024.0;
    max_cycles = 50_000_000;
  }

type region_result = {
  cycles : int;
  firings : int;
}

type t = {
  total_cycles : int;
  per_region : region_result list;
  l2_bytes : float;
  dram_bytes : float;
  sim_ipc : float;
}

(* ------------------------------------------------------------------ *)
(* Per-stream simulation state                                         *)
(* ------------------------------------------------------------------ *)

type path = Local | Shared

type role = Read | Write | Fill | Drain

(* Byte accounting of one stream. Every field is a float, so the record is
   stored flat and the cycle loop updates it without allocating. *)
type flow = {
  port_cap : float;   (* bytes of port-side buffering *)
  mpf : float;        (* memory-side bytes per firing *)
  total : float;      (* memory-side bytes for the whole region, per tile *)
  miss_frac : float;
  waste : float;      (* line-granularity inflation on the shared path *)
  ahead : float;      (* how far issue may run ahead of consumption: port
                         buffering, plus the engine's reorder buffer on the
                         shared path *)
  mutable issued : float;
  mutable done_ : float;
  mutable write_buf : float;
}

(* Responses in flight sit in a ring of (ready cycle, bytes). A stream
   issues at most once per cycle, always with the same latency, so at most
   that many are outstanding; [ring_size] covers the config's largest. *)
type sstate = {
  role : role;
  path : path;
  engine : Adg.id;
  f : flow;
  ready : int array;
  bytes : float array;
  mutable head : int;
  mutable len : int;
}

type engine_state = {
  bw : float;
  mutable rr : int;
  members : int array;  (* indices into the tile's [streams] *)
  active : int array;   (* scratch: this cycle's issuing members *)
}

type tile_state = {
  streams : sstate array;
  engines : engine_state array;
  ii : int;
  target : int;
  dispatches : int;  (* stream dispatch events *)
  mutable fired : int;
  mutable cooldown : int;
  mutable dispatch_left : int;
  wants : int array;  (* this cycle's shared-path requests as indices into
                         [streams], issue order *)
  want_bytes : float array;
  mutable n_wants : int;
  l2_part : float array;    (* scratch: per-want L2 products of [arbitrate] *)
  dram_part : float array;  (* scratch: per-want DRAM products *)
}

let[@inline] fnear a b = a >= b -. 1e-6

(* [Float.min]/[Float.max] order signed zeros and propagate NaN, which
   costs a call to C's signbit whenever the second operand is not the
   larger.  The cycle loop uses these plain comparisons instead; the
   [float] annotations keep them from being polymorphic [compare].  They
   give the same bits here: no operand is NaN (only DMA fill and drain
   streams have an infinite [port_cap], and they never read [ahead], so no
   [inf -. inf] is formed), and otherwise the two differ only in the sign
   of a zero result, which either passes through [fmax 0.0] (giving +0.0
   both ways) or is compared against [1e-9] or through [fnear] before any
   use. *)
let[@inline] fmin (x : float) (y : float) = if y > x then x else y
let[@inline] fmax (x : float) (y : float) = if y > x then y else x

(* The cycle-loop functions ([deliver], [collect], [fire], [tile_done],
   [replay], [arbitrate], [push]) index arrays without bounds checks.
   [setup_tile] checks, once per region, the invariants that keep every
   such index in range (see [check_tile]); every other index is bounded by
   its own loop. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let ring_size cfg =
  let need = 1 + max cfg.spad_latency (max cfg.l2_hit_latency cfg.dram_latency) in
  let rec grow n = if n >= need then n else grow (2 * n) in
  grow 1

let[@inline] push s ready bytes =
  let i = (s.head + s.len) land (Array.length s.ready - 1) in
  s.ready.!(i) <- ready;
  s.bytes.!(i) <- bytes;
  s.len <- s.len + 1

(* ------------------------------------------------------------------ *)
(* Region setup                                                        *)
(* ------------------------------------------------------------------ *)

let dispatches_of_region (v : Compile.variant) =
  (* loops deeper than the engines' 3D affine patterns force per-chunk
     stream re-dispatch *)
  let loops = v.region.Overgen_workload.Ir.loops in
  let outer = List.filteri (fun i _ -> i < List.length loops - 3) loops in
  int_of_float
    (List.fold_left
       (fun acc (l : Overgen_workload.Ir.loop) ->
         acc *. Overgen_workload.Ir.trip_avg l.trip)
       1.0 outer)

let stream cfg ~ring role path engine ~port_cap ~mpf ~total ~miss_frac ~waste =
  let ahead =
    Float.max port_cap (2.0 *. mpf) +. if path = Shared then cfg.rob_bytes else 0.0
  in
  { role; path; engine;
    f = { port_cap; mpf; total; miss_frac; waste; ahead;
          issued = 0.0; done_ = 0.0; write_buf = 0.0 };
    ready = Array.make ring 0; bytes = Array.make ring 0.0; head = 0; len = 0 }

(* The invariants behind the cycle loop's unchecked indices:
   - the engines' [members] partition [0 .. n_streams-1], so every member
     indexes [streams], each stream issues at most once per cycle, an
     engine's [active] (as long as its [members]) holds its issuing
     members, and at most [n_streams] wants fill [wants], [want_bytes],
     [l2_part] and [dram_part], which are that long;
   - each response ring's length is a power of two, shared by its [ready]
     and [bytes], so the masked ring indices stay in range.
   [setup_tile] builds tiles this way; the check keeps it so. *)
let check_tile t =
  let n = Array.length t.streams in
  let broken what = invalid_arg ("Sim.setup_tile: " ^ what) in
  let seen = Array.make n false in
  Array.iter
    (fun e ->
      if Array.length e.active <> Array.length e.members then
        broken "engine scratch is not as long as its members";
      Array.iter
        (fun m ->
          if m < 0 || m >= n || seen.(m) then
            broken "engine members do not partition the streams";
          seen.(m) <- true)
        e.members)
    t.engines;
  if not (Array.for_all Fun.id seen) then
    broken "engine members do not partition the streams";
  if Array.length t.wants <> n || Array.length t.want_bytes <> n
     || Array.length t.l2_part <> n || Array.length t.dram_part <> n
  then broken "want buffers are not one slot per stream";
  Array.iter
    (fun s ->
      let r = Array.length s.ready in
      if r = 0 || r land (r - 1) <> 0 || Array.length s.bytes <> r then
        broken "response ring length is not a power of two")
    t.streams;
  t

(* One tile's state for a region run on [share] tiles. *)
let setup_tile cfg (sys : Sys_adg.t) ~share ~ring (sched : Schedule.t) =
  let adg = sys.adg in
  let tiles = share in
  let v = sched.variant in
  let firings_tile =
    max 1 (int_of_float (ceil (v.firings /. float_of_int tiles)))
  in
  let port_cap_of dfg_port fallback =
    match Option.bind dfg_port (fun p -> Schedule.Imap.find_opt p sched.port_map) with
    | Some hw -> (
      match Adg.comp adg hw with
      | Some (Comp.In_port p) | Some (Comp.Out_port p) ->
        float_of_int (p.width_bytes * p.fifo_depth)
      | Some (Comp.Pe _ | Comp.Switch _ | Comp.Engine _) | None -> fallback)
    | None -> fallback
  in
  let working_set =
    List.fold_left
      (fun acc (a : Stream.array_info) -> acc + (a.elems * a.elem_bytes))
      0 v.arrays
  in
  let fits_l2 = working_set <= sys.system.System.l2_kb * 1024 in
  let spad_arrays =
    List.filter_map
      (fun (name, e) ->
        match Adg.comp adg e with
        | Some (Comp.Engine { kind = Comp.Spad; _ }) -> Some (name, e)
        | Some _ | None -> None)
      sched.array_engine
  in
  let miss_of (s : Stream.t) =
    if fits_l2 then
      let traffic = Float.max 1.0 s.reuse.traffic in
      Overgen_util.Stats.clamp ~lo:0.0 ~hi:1.0
        (float_of_int s.reuse.footprint /. traffic)
    else 1.0
  in
  let mk_stream (s : Stream.t) =
    let use_rec = Schedule.is_rec sched s in
    let total = Stream.mem_bytes s ~use_rec /. float_of_int tiles in
    let path = if List.mem_assoc s.array spad_arrays then Local else Shared in
    let engine = Option.value (Schedule.engine_of_stream sched s) ~default:(-1) in
    stream cfg ~ring
      (match s.dir with Stream.Read -> Read | Stream.Write -> Write)
      path engine ~port_cap:(port_cap_of s.port 128.0)
      ~mpf:(total /. float_of_int firings_tile)
      ~total
      ~miss_frac:(if path = Local then 0.0 else miss_of s)
      ~waste:(if path = Local then 1.0 else Overgen_perf.Perf.stride_waste s)
  in
  let data_streams = List.map mk_stream v.streams in
  (* scratchpad fill (before compute) and drain (after) on the shared path *)
  let array_partitioned name =
    List.for_all (fun (s : Stream.t) -> s.array <> name || s.partitioned) v.streams
  in
  let fills_drains =
    List.concat_map
      (fun (a : Stream.array_info) ->
        match List.assoc_opt a.name spad_arrays with
        | None -> []
        | Some _ ->
          let bytes = float_of_int (a.elems * a.elem_bytes) in
          let per_tile =
            if array_partitioned a.name then bytes /. float_of_int tiles else bytes
          in
          let dma =
            List.find_map
              (fun (_, e) ->
                match Adg.comp adg e with
                | Some (Comp.Engine { kind = Comp.Dma; _ }) -> Some e
                | Some _ | None -> None)
              sched.array_engine
            |> Option.value ~default:(-1)
          in
          let dma_stream role =
            stream cfg ~ring role Shared dma ~port_cap:infinity ~mpf:0.0
              ~total:per_tile ~miss_frac:1.0 ~waste:1.0
          in
          if a.read_only then [ dma_stream Fill ]
          else [ dma_stream Fill; dma_stream Drain ])
      v.arrays
  in
  let streams = Array.of_list (data_streams @ fills_drains) in
  (* group streams by engine *)
  let engine_ids =
    Array.to_list streams
    |> List.map (fun s -> s.engine)
    |> List.sort_uniq compare
  in
  let engines =
    List.map
      (fun eid ->
        let bw =
          match Adg.comp adg eid with
          | Some (Comp.Engine en) -> float_of_int en.Comp.bandwidth
          | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _)
          | None -> 8.0
        in
        let members =
          List.init (Array.length streams) Fun.id
          |> List.filter (fun i -> streams.(i).engine = eid)
          |> Array.of_list
        in
        { bw; rr = 0; members; active = Array.make (Array.length members) 0 })
      engine_ids
    |> Array.of_list
  in
  let n_streams = Array.length streams in
  let dispatches = dispatches_of_region v in
  check_tile
    { streams; engines; ii = max 1 sched.ii; target = firings_tile; dispatches;
      fired = 0; cooldown = 0;
      dispatch_left = 2 + (2 * n_streams) + (dispatches * 2);
      wants = Array.make n_streams 0; want_bytes = Array.make n_streams 0.0; n_wants = 0;
      l2_part = Array.make n_streams 0.0; dram_part = Array.make n_streams 0.0 }

(* Shared-path bandwidths in bytes per cycle; all floats, so stored flat
   and passed to the cycle loop without boxing. *)
type limits = { noc_bw : float; l2_bw : float; dram_bw : float }

let limits cfg (sysp : System.t) =
  let line = float_of_int Overgen_perf.Perf.line_bytes in
  let mshr_bw =
    float_of_int (cfg.mshr_per_bank * sysp.System.l2_banks)
    *. line /. float_of_int cfg.dram_latency
  in
  {
    noc_bw = float_of_int sysp.System.noc_bytes;
    l2_bw =
      float_of_int (min (System.l2_bytes_per_cycle sysp) (System.shared_bandwidth sysp));
    dram_bw = Float.min (float_of_int (System.dram_bytes_per_cycle sysp)) mshr_bw;
  }

(* ------------------------------------------------------------------ *)
(* One cycle of one tile                                               *)
(* ------------------------------------------------------------------ *)

let tile_done t =
  t.fired >= t.target
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length t.streams do
    let s = t.streams.!(!i) in
    (ok :=
       match s.role with
       | Read -> true
       | Write -> s.f.write_buf <= 1e-6
       | Fill | Drain -> fnear s.f.done_ s.f.total);
    incr i
  done;
  !ok

(* Phase 1: deliver memory responses whose latency has elapsed. *)
let deliver t c =
  for i = 0 to Array.length t.streams - 1 do
    let s = t.streams.!(i) in
    while s.len > 0 && s.ready.!(s.head) <= c do
      s.f.done_ <- s.f.done_ +. s.bytes.!(s.head);
      s.head <- (s.head + 1) land (Array.length s.ready - 1);
      s.len <- s.len - 1
    done
  done

(* Phase 2: stream engines issue round-robin within their bandwidth; local
   requests complete against the spad/recurrence path, shared ones are
   left in [t.wants] for global arbitration after the per-tile NoC clamp. *)
let collect cfg lim t c =
  t.n_wants <- 0;
  if t.dispatch_left > 0 then t.dispatch_left <- t.dispatch_left - 1
  else begin
    let consumed = float_of_int t.fired in
    for e = 0 to Array.length t.engines - 1 do
      let e = t.engines.!(e) in
      let n = ref 0 in
      for m = 0 to Array.length e.members - 1 do
        let s = t.streams.!(e.members.!(m)) in
        let f = s.f in
        let issuing =
          match s.role with
          | Read -> f.issued < f.total -. 1e-9 && f.issued -. (consumed *. f.mpf) < f.ahead
          | Fill -> f.issued < f.total -. 1e-9
          | Write -> f.write_buf > 1e-9
          | Drain -> t.fired >= t.target && f.issued < f.total -. 1e-9
        in
        if issuing then begin
          e.active.!(!n) <- m;
          incr n
        end
      done;
      let n = !n in
      if n > 0 then begin
        let budget = ref (if n = 1 && not cfg.one_hot_bypass then e.bw /. 2.0 else e.bw) in
        (* [n] changes from cycle to cycle, so [e.rr + 1] may exceed it;
           once reduced, [e.rr < n] and so [k + e.rr < 2n]. *)
        let r = e.rr + 1 in
        e.rr <- (if r < n then r else r mod n);
        for k = 0 to n - 1 do
          let j = k + e.rr in
          let m = e.members.!(e.active.!(if j < n then j else j - n)) in
          let s = t.streams.!(m) in
          let f = s.f in
          if !budget > 1e-9 then begin
            let want =
              match s.role with
              | Read ->
                fmax 0.0
                  (fmin !budget
                     (fmin (f.total -. f.issued)
                        (f.ahead +. (consumed *. f.mpf) -. f.issued)))
              | Fill -> fmax 0.0 (fmin !budget (f.total -. f.issued))
              | Write -> fmin !budget f.write_buf
              | Drain -> fmin !budget (f.total -. f.issued)
            in
            if want > 1e-9 then begin
              budget := !budget -. want;
              match s.path, s.role with
              | Shared, _ ->
                t.wants.!(t.n_wants) <- m;
                t.want_bytes.!(t.n_wants) <- want;
                t.n_wants <- t.n_wants + 1
              | Local, Write -> f.write_buf <- f.write_buf -. want
              | Local, (Read | Fill | Drain) ->
                (* fills and drains always take the shared path (see
                   [setup_tile]), so this is a scratchpad read *)
                f.issued <- f.issued +. want;
                push s (c + cfg.spad_latency) want
            end
          end
        done
      end
    done;
    (* per-tile NoC clamp, summed latest request first *)
    let tot = ref 0.0 in
    for k = t.n_wants - 1 downto 0 do
      tot := !tot +. (t.want_bytes.!(k) *. t.streams.!(t.wants.!(k)).f.waste)
    done;
    if !tot > lim.noc_bw then begin
      let scale = lim.noc_bw /. !tot in
      for k = 0 to t.n_wants - 1 do
        t.want_bytes.!(k) <- t.want_bytes.!(k) *. scale
      done
    end
  end

(* Phase 4: the spatial fabric fires one DFG instance per II when ready. *)
let fire t =
  if t.cooldown > 0 then t.cooldown <- t.cooldown - 1
  else if t.dispatch_left = 0 && t.fired < t.target then begin
    let next = float_of_int (t.fired + 1) in
    let ready = ref true and i = ref 0 in
    while !ready && !i < Array.length t.streams do
      let s = t.streams.!(!i) in
      let f = s.f in
      (ready :=
         match s.role with
         | Read -> fnear f.done_ (fmin f.total (next *. f.mpf))
         | Write -> f.write_buf +. f.mpf <= f.port_cap +. 1e-6
         | Fill -> fnear f.done_ f.total
         | Drain -> true);
      incr i
    done;
    if !ready then begin
      t.fired <- t.fired + 1;
      t.cooldown <- t.ii - 1;
      for i = 0 to Array.length t.streams - 1 do
        let s = t.streams.!(i) in
        if s.role = Write then s.f.write_buf <- s.f.write_buf +. s.f.mpf
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* The stepping loop                                                  *)
(* ------------------------------------------------------------------ *)

(* The tiles of one share start from the same state, see the same global
   L2/DRAM scales and so stay identical: one representative tile is
   stepped and stands for [copies] of them. *)
type tenant = {
  copies : int;
  mutable todo : Schedule.t list;  (* the region being simulated, then the rest *)
  mutable tile : tile_state;
  mutable start : int;          (* cycle the region began *)
  mutable regions : region_result list;  (* finished, latest first *)
  mutable finished_at : int;    (* -1 while running *)
}

type totals = { mutable l2 : float; mutable dram : float }

(* Adds [copies] copies of [a.(0 .. n-1)] to [acc.l2] and of
   [b.(0 .. n-1)] to [acc.dram], copy-major: the order, and so the
   rounding, of a tile-by-tile sum.  The two chains of additions are
   independent, so they overlap; widths 1 and 2 (most cycles have one or
   two wants) keep their operands in registers. *)
let replay acc copies n (a : float array) (b : float array) =
  let x = ref acc.l2 and y = ref acc.dram in
  (match n with
  | 0 -> ()
  | 1 ->
    let a0 = a.!(0) and b0 = b.!(0) in
    for _ = 1 to copies do
      x := !x +. a0;
      y := !y +. b0
    done
  | 2 ->
    let a0 = a.!(0) and a1 = a.!(1) and b0 = b.!(0) and b1 = b.!(1) in
    for _ = 1 to copies do
      x := !x +. a0 +. a1;
      y := !y +. b0 +. b1
    done
  | _ ->
    for _ = 1 to copies do
      for k = 0 to n - 1 do
        x := !x +. a.!(k);
        y := !y +. b.!(k)
      done
    done);
  acc.l2 <- !x;
  acc.dram <- !y

(* Phase 3: global L2 / DRAM arbitration over every live tile's shared
   wants. The L2 demand sums want x waste, the DRAM demand want x waste x
   L2 scale x miss fraction, and the byte totals each grant's bytes, over
   every tile. Each product is computed once per want into the
   representative's scratch arrays and only the additions are replayed
   [copies] times ([replay]); the DRAM demand is summed beside the L2
   demand at an L2 scale of 1.0 (x 1.0 is exact) into [demand], a record
   allocated once per run. The grant itself is applied to the
   representative once. *)
let arbitrate cfg lim demand totals tenants c =
  demand.l2 <- 0.0;
  demand.dram <- 0.0;
  for i = 0 to Array.length tenants - 1 do
    let tn = tenants.!(i) in
    let t = tn.tile in
    if tn.finished_at < 0 then begin
      for k = 0 to t.n_wants - 1 do
        let f = t.streams.!(t.wants.!(k)).f in
        let p = t.want_bytes.!(k) *. f.waste in
        t.l2_part.!(k) <- p;
        t.dram_part.!(k) <- p *. f.miss_frac
      done;
      replay demand tn.copies t.n_wants t.l2_part t.dram_part
    end
  done;
  let l2_scale = if demand.l2 > lim.l2_bw then lim.l2_bw /. demand.l2 else 1.0 in
  if l2_scale <> 1.0 then begin
    (* L2 binds (rare): the DRAM demand is summed again at its scale (the
       L2 demand is re-summed beside it and not read again) *)
    demand.l2 <- 0.0;
    demand.dram <- 0.0;
    for i = 0 to Array.length tenants - 1 do
      let tn = tenants.!(i) in
      let t = tn.tile in
      if tn.finished_at < 0 then begin
        for k = 0 to t.n_wants - 1 do
          t.dram_part.!(k) <-
            t.l2_part.!(k) *. l2_scale *. t.streams.!(t.wants.!(k)).f.miss_frac
        done;
        replay demand tn.copies t.n_wants t.l2_part t.dram_part
      end
    done
  end;
  let dram_scale =
    if demand.dram > lim.dram_bw then lim.dram_bw /. demand.dram else 1.0
  in
  for i = 0 to Array.length tenants - 1 do
    let tn = tenants.!(i) in
    let t = tn.tile in
    if tn.finished_at < 0 then begin
      for k = 0 to t.n_wants - 1 do
        let s = t.streams.!(t.wants.!(k)) in
        let f = s.f in
        let g = t.want_bytes.!(k) *. l2_scale in
        let hit = g *. (1.0 -. f.miss_frac) in
        let miss = g *. f.miss_frac *. dram_scale in
        let granted = hit +. miss in
        t.l2_part.!(k) <- granted *. f.waste;
        t.dram_part.!(k) <- miss *. f.waste;
        if granted > 1e-9 then
          match s.role with
          | Read | Fill ->
            f.issued <- f.issued +. granted;
            push s
              (c + if f.miss_frac > 0.5 then cfg.dram_latency else cfg.l2_hit_latency)
              granted
          | Write -> f.write_buf <- f.write_buf -. granted
          | Drain ->
            f.issued <- f.issued +. granted;
            f.done_ <- f.done_ +. granted
      done;
      replay totals tn.copies t.n_wants t.l2_part t.dram_part
    end
  done

(* Counters and result for a region that finished after [steps] cycles. *)
let finish_region cfg tn steps =
  let t = tn.tile in
  if Obs.on () then begin
    Obs.incr m_regions;
    Obs.incr m_cycles ~by:steps;
    Obs.incr m_firings ~by:(tn.copies * t.fired);
    Obs.incr m_stalls
      ~by:(max 0 ((steps * tn.copies) - (tn.copies * t.fired * t.ii)))
  end;
  let v = (List.hd tn.todo : Schedule.t).variant in
  { cycles = steps + Dfg.depth v.dfg + cfg.l2_hit_latency (* pipeline drain *);
    firings = t.target }

(* Step every tenant's regions back to back, all tenants concurrently, until
   the last finishes; [stuck] is called with the schedule of a region that
   reaches [cfg.max_cycles]. Returns the makespan, the tenants and the
   L2/DRAM byte totals. *)
let simulate cfg (sys : Sys_adg.t) assignments ~stuck =
  let lim = limits cfg sys.system in
  let ring = ring_size cfg in
  let tenants =
    Array.of_list
      (List.map
         (fun (schedules, copies) ->
           match schedules with
           | [] -> invalid_arg "Sim.run_multi: tenant with no schedules"
           | _ when copies <= 0 -> invalid_arg "Sim.run_multi: tenant with no tiles"
           | first :: _ ->
             { copies; todo = schedules; tile = setup_tile cfg sys ~share:copies ~ring first;
               start = 0; regions = []; finished_at = -1 })
         assignments)
  in
  let demand = { l2 = 0.0; dram = 0.0 } and totals = { l2 = 0.0; dram = 0.0 } in
  let live = ref (Array.length tenants) and cycle = ref 0 in
  while !live > 0 do
    let c = !cycle in
    for i = 0 to Array.length tenants - 1 do
      let tn = tenants.(i) in
      if tn.finished_at < 0 then begin
        deliver tn.tile c;
        collect cfg lim tn.tile c
      end
    done;
    arbitrate cfg lim demand totals tenants c;
    for i = 0 to Array.length tenants - 1 do
      let tn = tenants.(i) in
      if tn.finished_at < 0 then begin
        fire tn.tile;
        let steps = c + 1 - tn.start in
        if steps >= cfg.max_cycles then stuck (List.hd tn.todo);
        if tile_done tn.tile then begin
          tn.regions <- finish_region cfg tn steps :: tn.regions;
          match List.tl tn.todo with
          | next :: _ as rest ->
            tn.todo <- rest;
            tn.tile <- setup_tile cfg sys ~share:tn.copies ~ring next;
            tn.start <- c + 1
          | [] ->
            tn.finished_at <- c + 1;
            decr live
        end
      end
    done;
    incr cycle
  done;
  (!cycle, tenants, totals)

let run ?(config = default_config) (sys : Sys_adg.t) schedules =
  let per_region, totals =
    match schedules with
    | [] -> ([], { l2 = 0.0; dram = 0.0 })
    | _ ->
      let _, tenants, totals =
        simulate config sys
          [ (schedules, sys.system.System.tiles) ]
          ~stuck:(fun (s : Schedule.t) ->
            failwith
              (Printf.sprintf "Sim.run: region %s exceeded %d cycles (deadlock?)"
                 s.variant.region.Overgen_workload.Ir.rname config.max_cycles))
      in
      (List.rev tenants.(0).regions, totals)
  in
  let total_cycles = List.fold_left (fun acc r -> acc + r.cycles) 0 per_region in
  let work =
    List.fold_left
      (fun acc (sched : Schedule.t) ->
        acc
        +. (float_of_int (Dfg.inst_count sched.variant.dfg + Schedule.mem_ops sched)
           *. sched.variant.firings))
      0.0 schedules
  in
  { total_cycles; per_region; l2_bytes = totals.l2; dram_bytes = totals.dram;
    sim_ipc = work /. float_of_int (max 1 total_cycles) }

let wall_time_ms ~freq_mhz t =
  float_of_int t.total_cycles /. (freq_mhz *. 1000.0)

(* ------------------------------------------------------------------ *)
(* Multi-tenant execution (paper future work: heterogeneous workload   *)
(* mixes on one fabric)                                                *)
(* ------------------------------------------------------------------ *)

type tenant_result = {
  t_kernel : string;
  t_cycles : int;  (* when this tenant finished *)
}

type multi_result = {
  m_cycles : int;           (* makespan *)
  tenants : tenant_result list;
  m_l2_bytes : float;
  m_dram_bytes : float;
}

let run_multi ?(config = default_config) (sys : Sys_adg.t) assignments =
  let total_share = List.fold_left (fun acc (_, s) -> acc + s) 0 assignments in
  if total_share > sys.system.System.tiles then
    invalid_arg "Sim.run_multi: tile shares exceed the system's tiles";
  let m_cycles, tenants, totals =
    simulate config sys assignments ~stuck:(fun _ ->
        failwith "Sim.run_multi: exceeded max_cycles (deadlock?)")
  in
  {
    m_cycles;
    tenants =
      List.mapi
        (fun i (schedules, _) ->
          { t_kernel = (List.hd schedules : Schedule.t).variant.kernel;
            t_cycles = tenants.(i).finished_at })
        assignments;
    m_l2_bytes = totals.l2;
    m_dram_bytes = totals.dram;
  }
