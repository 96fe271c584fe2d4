open Overgen_adg
open Overgen_mdfg
open Overgen_scheduler
open Overgen_fpga
open Overgen_mlp
module Rng = Overgen_util.Rng
module Pool = Overgen_par.Pool
module Perf = Overgen_perf.Perf
module Obs = Overgen_obs.Obs
module Store = Overgen_store.Store
module Codec = Overgen_store.Codec

(* DSE counters on the shared default registry (gated), registered at
   load time: islands bump them from several domains, and forcing one lazy
   value from two domains at once raises.  Per-island objective gauges are
   registered on demand — the island count is a run parameter. *)
let m_iterations =
  Obs.Metrics.counter Obs.Metrics.default "overgen_dse_iterations_total"
    ~help:"annealer iterations across all islands"

let m_moves_accepted =
  Obs.Metrics.counter Obs.Metrics.default "overgen_dse_accepted_total"
    ~help:"accepted annealer moves across all islands"

let m_moves_invalid =
  Obs.Metrics.counter Obs.Metrics.default "overgen_dse_invalid_total"
    ~help:"proposals rejected as unschedulable or unfittable"

let m_checkpoints =
  Obs.Metrics.counter Obs.Metrics.default "overgen_dse_checkpoints_total"
    ~help:"DSE checkpoints written to the durable store"

(* The worker pool that explorations share.  The first one to start
   creates it, with a watcher systhread that checks every [linger_s] and
   shuts the pool down once no exploration ran, started or finished in
   that span, so after 0.25-0.5 s of idleness.  Back-to-back explorations
   thus share one worker domain (spawning one per call raised the dse
   workload's peak RSS by ~45%), and a process that explores now and then,
   a serving shard after a fleet promote say, does not keep a parked
   domain: every live domain takes part in each stop-the-world minor
   collection, which slows allocating work in the rest of the process by
   ~10% (EXPERIMENTS.md).  The watcher lives in the domain that created the
   pool, so joining that domain waits for the release.  On a pool's [map]
   the caller helps, so [Domains k] works on k + 1 domains. *)
let linger_s = 0.25

type shared = {
  lock : Mutex.t;
  mutable live : Pool.t option;
  mutable running : int;  (* explorations using [live] *)
  mutable touched : bool;  (* one started or finished since the last check *)
}

let shared = { lock = Mutex.create (); live = None; running = 0; touched = false }

let rec reap pool =
  Thread.delay linger_s;
  let idle =
    Mutex.protect shared.lock (fun () ->
        let idle = shared.running = 0 && not shared.touched in
        shared.touched <- false;
        if idle then shared.live <- None;
        idle)
  in
  if idle then Pool.shutdown pool else reap pool

let with_pool f =
  let pool =
    Mutex.protect shared.lock (fun () ->
        shared.running <- shared.running + 1;
        shared.touched <- true;
        match shared.live with
        | Some pool -> pool
        | None ->
          let pool =
            Pool.create (Pool.Domains (max 1 (Domain.recommended_domain_count () - 1)))
          in
          shared.live <- Some pool;
          ignore (Thread.create reap pool);
          pool)
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect shared.lock (fun () ->
          shared.running <- shared.running - 1;
          shared.touched <- true))
    (fun () -> f pool)

(* [f x] under span [parent]: a pool job's spans nest under the span that
   submitted it, whichever domain runs it.  [parent] is 0 with tracing
   off, so this is then just [f x]. *)
let under parent f x =
  if parent = 0 then f x else Obs.Span.with_parent parent (fun () -> f x)

(* A job's outcome with its exception, re-raised where the fold reads it. *)
let attempt f = match f () with y -> Ok y | exception e -> Error e
let get = function Ok y -> y | Error e -> raise e

(* Per-app results of pool jobs, decided in app order exactly as the
   sequential loop decided them.  App [i]'s work is [parts] jobs [job k i]
   (k < parts), which record what they find and never raise; the jobs are
   queued part by part, every app's part 0 first.  The job that completes
   an app's last part runs [decide i].  The first [None] or exception in
   app order fails the whole set, and the exception is re-raised.  A job
   that starts after an earlier app has failed returns at once, as the
   sequential loop would have stopped before it; what it would have
   recorded is never read. *)
let map_apps pool ~parts n job decide =
  let parent = Obs.Span.current_id () in
  let first_failed = Atomic.make max_int in
  let rec note i =
    let j = Atomic.get first_failed in
    if i < j && not (Atomic.compare_and_set first_failed j i) then note i
  in
  let pending = Array.init n (fun _ -> Atomic.make parts) in
  let decided = Array.make n (Ok None) in
  let run (k, i) =
    if Atomic.get first_failed >= i then begin
      job k i;
      (* the atomic orders the other parts' records before [decide] *)
      if Atomic.fetch_and_add pending.(i) (-1) = 1 then begin
        let d = attempt (fun () -> decide i) in
        decided.(i) <- d;
        match d with Ok (Some _) -> () | Ok None | Error _ -> note i
      end
    end
  in
  ignore
    (Pool.map pool (under parent run) (List.init (parts * n) (fun j -> (j / n, j mod n))));
  let rec in_order acc i =
    if i = n then Some (List.rev acc)
    else match get decided.(i) with Some x -> in_order (x :: acc) (i + 1) | None -> None
  in
  in_order [] 0

(* [f ()] and [g ()] as two pool jobs; [f]'s exception wins, as if it had
   run first. *)
let both pool f g =
  let parent = Obs.Span.current_id () in
  let a = ref None and b = ref None in
  ignore
    (Pool.map pool
       (fun job -> under parent job ())
       [ (fun () -> a := Some (f ())); (fun () -> b := Some (g ())) ]);
  (Option.get !a, Option.get !b)

let island_gauge idx =
  Obs.Metrics.gauge Obs.Metrics.default "overgen_dse_island_objective"
    ~help:"current objective (weighted-geomean IPC) per island"
    ~labels:[ ("island", string_of_int idx) ]

type mutation_policy = Random | Schedule_preserving

type config = {
  seed : int;
  iterations : int;
  initial_temp : float;
  mutation_policy : mutation_policy;
  islands : int;
  migration_interval : int;
  topologies : System.noc_topology list;
}

let default_config =
  { seed = 17; iterations = 250; initial_temp = 0.35;
    mutation_policy = Schedule_preserving; islands = 1;
    migration_interval = 25; topologies = [ System.Crossbar ] }

type design = {
  sys : Sys_adg.t;
  per_app : Schedule.t list list;
  objective : float;
  predicted : Res.t;
}

type trace_point = {
  island : int;
  iter : int;
  modeled_hours : float;
  est_ipc : float;
}

type stats = {
  accepted : int;
  invalid : int;
  repaired : int;
  incremental : int;
  rescheduled : int;
}

type result = {
  best : design;
  trace : trace_point list;
  stats : stats;
  wall_seconds : float;
  modeled_hours : float;
}

module Time = struct
  let pregen_per_app_s = 90.0
  let reschedule_per_app_s = 18.0
  let incremental_per_app_s = 5.0
  let repair_per_app_s = 2.0
  let iteration_overhead_s = 3.0
end

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type checkpoint = { store : Store.t; key : string; interval : int }

let checkpoint_ns = "dse-checkpoint"
let checkpoint_schema = "dse-checkpoint-v3"

type island_snap = {
  s_idx : int;
  s_rng : int64;
  s_iters : int;
  s_iter : int;
  s_cur_score : float;
  s_cur : design;
  s_best_score : float;
  s_best : design;
  s_trace_rev : trace_point list;
  s_modeled_s : float;
  s_accepted : int;
  s_invalid : int;
  s_repaired : int;
  s_incremental : int;
  s_rescheduled : int;
}

type snapshot = {
  snap_sig : string;
  snap_islands : island_snap list;
  snap_elites : (float * design) list;
}

(* Everything the continuation depends on must be pinned: the config
   knobs and the exact workload variant sets.  Resuming under a different
   signature would silently diverge, so it is refused instead. *)
let run_signature (config : config) apps =
  let topo = function System.Crossbar -> "xbar" | System.Ring -> "ring" in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([
             string_of_int config.seed;
             string_of_int config.iterations;
             Printf.sprintf "%h" config.initial_temp;
             (match config.mutation_policy with
             | Random -> "random"
             | Schedule_preserving -> "preserve");
             string_of_int config.islands;
             string_of_int config.migration_interval;
           ]
          @ List.map topo config.topologies
          @ List.map Compile.hash_compiled apps)))

let compile_apps ~tuned kernels = List.map (Compile.compile ~tuned) kernels

let caps_pool apps =
  List.fold_left
    (fun acc (c : Compile.compiled) ->
      List.fold_left
        (fun acc variants ->
          List.fold_left
            (fun acc (v : Compile.variant) ->
              List.fold_left
                (fun acc (n : Dfg.node) ->
                  match n.kind with
                  | Dfg.Inst { op; dtype; _ } -> Op.Cap.add (op, dtype) acc
                  | Dfg.Const _ | Dfg.Input _ | Dfg.Output _ -> acc)
                acc (Dfg.nodes v.dfg))
            acc variants)
        acc c.per_region)
    Op.Cap.empty apps

(* ------------------------------------------------------------------ *)
(* Nested exhaustive system DSE (Section V-A)                          *)
(* ------------------------------------------------------------------ *)

(* The candidate systems with their uncore resources, in
   [System.candidates] order.  An exploration builds this once. *)
let candidate_systems topologies =
  Array.of_list
    (List.map
       (fun sysp -> (sysp, Oracle.system_overhead sysp))
       (System.candidates ~topologies ()))

(* The perf model's system-independent half is profiled once per call and
   prepared once per tile count (candidates come grouped by tile count);
   each candidate then costs only the per-system arithmetic, and builds
   nothing unless it is the best so far.  The first of equal scores wins. *)
let system_dse ?(attrs = []) ?memo ~device ~model systems adg per_app =
  Obs.Span.with_span "dse_system" ~attrs @@ fun () ->
  let usable = Device.usable device in
  let tile_res = Predict.predict_accel ?memo model adg in
  let profiles = Array.of_list (List.map (Perf.profile adg) per_app) in
  let tiles = ref 0 and prepared = ref [||] and tiles_res = ref Res.zero in
  let best = ref (-1) and best_score = ref 0.0 and best_obj = ref 0.0 in
  for i = 0 to Array.length systems - 1 do
    let (sysp : System.t), overhead = systems.(i) in
    if sysp.tiles <> !tiles then begin
      tiles := sysp.tiles;
      prepared := Array.map (fun p -> Perf.prepare sysp.tiles p) profiles;
      tiles_res := Res.scale sysp.tiles tile_res
    end;
    if Res.fits_sum !tiles_res overhead ~within:usable then begin
      let obj = Perf.prepared_objective sysp !prepared in
      (* secondary objectives: prune resources-per-accelerator (and uncore
         overheads such as the NoC), but spend the freed budget on more
         tiles — the paper's DSE greedily consumes the FPGA for
         cross-workload generality even when bandwidth-bound *)
      let predicted_lut = !tiles_res.Res.lut + overhead.Res.lut in
      let lut_frac =
        float_of_int (tile_res.Res.lut + (predicted_lut / max 1 sysp.tiles))
        /. float_of_int (max 1 usable.Res.lut)
      in
      let score =
        obj
        *. (1.0 +. (0.02 *. (1.0 -. lut_frac)))
        *. (1.0 +. (0.004 *. float_of_int sysp.tiles))
      in
      if !best < 0 || not (!best_score >= score) then begin
        best := i;
        best_score := score;
        best_obj := obj
      end
    end
  done;
  if !best < 0 then None
  else
    let sysp, overhead = systems.(!best) in
    Some
      (!best_score, sysp, !best_obj, Res.add (Res.scale sysp.System.tiles tile_res) overhead)

(* ------------------------------------------------------------------ *)
(* Scheduling with repair-first strategy                               *)
(* ------------------------------------------------------------------ *)

type sched_outcome = {
  per_app : Schedule.t list list;
  n_repaired : int;
  n_incremental : int;
  n_rescheduled : int;
}

(* What an app's reschedule job found: [reschedule]'s answer, or
   [Needs_full] where the speculative re-map is to stand in for its full
   tier. *)
type found = Kept of Schedule.t list * Spatial.reschedule_outcome | Needs_full | Failed

(* Every app's rescore on the mutated sysADG: repair-first [reschedule],
   then, when the move added capacity and the app was repaired, a full
   [schedule_app] kept if it is no worse.  A rescore depends only on (sys,
   app, prior), so the apps rescore concurrently.  After an additive move
   each app's [schedule_app] is a pool job of its own, queued before the
   reschedules because it is the longest: it runs speculatively, counts
   only if the app's reschedule answers [Repaired], and stands in for the
   full tier when both pinned tiers fail, so a [Full] app is not re-mapped
   twice.  The [dse_reschedule] and [dse_additive] spans show which phase
   the time goes to. *)
let schedule_all ?(attrs = []) pool ~additive sys apps prior =
  let apps = Array.of_list apps and prior = Array.of_list prior in
  let n = Array.length apps in
  let span name i f =
    Obs.Span.with_span name ~attrs:(("app", apps.(i).Compile.kname) :: attrs) f
  in
  let remapped = Array.make n (Ok (Error "")) and found = Array.make n (Ok Failed) in
  let remap i =
    remapped.(i) <-
      attempt (fun () -> span "dse_additive" i (fun () -> Spatial.schedule_app sys apps.(i)))
  in
  let reschedule i =
    found.(i) <-
      attempt (fun () ->
          span "dse_reschedule" i (fun () ->
              if additive then
                match Spatial.reschedule_pinned sys ~prior:prior.(i) with
                | Some (s, outcome) -> Kept (s, outcome)
                | None -> Needs_full
              else
                match Spatial.reschedule sys apps.(i) ~prior:prior.(i) with
                | Ok (s, outcome) -> Kept (s, outcome)
                | Error _ -> Failed))
  in
  (* the schedules, the reschedule outcome, and whether an extra full
     schedule succeeded *)
  let decide i =
    match get found.(i) with
    | Failed -> None
    | Kept (s, Spatial.Repaired) when additive -> (
      match get remapped.(i) with
      | Ok s' ->
        let better = (Perf.app sys s').app_ipc >= (Perf.app sys s).app_ipc in
        Some ((if better then s' else s), Spatial.Repaired, true)
      | Error _ -> Some (s, Spatial.Repaired, false))
    | Kept (s, outcome) -> Some (s, outcome, false)
    | Needs_full ->
      Option.map (fun s -> (s, Spatial.Full, false)) (Result.to_option (get remapped.(i)))
  in
  map_apps pool ~parts:(if additive then 2 else 1) n
    (fun k i -> if additive && k = 0 then remap i else reschedule i)
    decide
  |> Option.map (fun rescored ->
         let count f = List.length (List.filter f rescored) in
         {
           per_app = List.map (fun (s, _, _) -> s) rescored;
           n_repaired = count (fun (_, o, _) -> o = Spatial.Repaired);
           n_incremental = count (fun (_, o, _) -> o = Spatial.Incremental);
           n_rescheduled = count (fun (_, o, full) -> o = Spatial.Full || full);
         })

(* ------------------------------------------------------------------ *)
(* Fixed-design evaluation                                             *)
(* ------------------------------------------------------------------ *)

let evaluate ~model (sys : Sys_adg.t) apps =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | app :: rest -> (
      match Spatial.schedule_app sys app with
      | Ok s -> go (s :: acc) rest
      | Error e -> Error e)
  in
  match go [] apps with
  | Error e -> Error e
  | Ok per_app ->
    Ok
      {
        sys;
        per_app;
        objective = Perf.objective sys per_app;
        predicted = Predict.predict_full model sys;
      }

(* ------------------------------------------------------------------ *)
(* The island-model annealer                                           *)
(* ------------------------------------------------------------------ *)

(* One independent annealing chain.  Mutable state is only ever touched by
   the island's own worker job between migration barriers; the driver reads
   and migrates at the barriers, after the pool's drain synchronizes. *)
type island = {
  idx : int;
  rng : Rng.t;
  iters : int;  (* this island's share of the total iteration budget *)
  mutable iter : int;  (* completed iterations *)
  mutable cur_score : float;
  mutable cur : design;
  mutable best_score : float;
  mutable best : design;
  mutable trace_rev : trace_point list;
  mutable modeled_s : float;
  mutable accepted : int;
  mutable invalid : int;
  mutable repaired : int;
  mutable incremental : int;
  mutable rescheduled : int;
  memo : Predict.memo;
      (* MLP predictions: island-private (islands run on separate domains),
         never checkpointed; a resumed island starts an empty one *)
  mutable usage : (Schedule.t list list * Mutate.usage) option;
      (* what [cur] uses, keyed by its [per_app] (physical equality); also
         never checkpointed, recomputed when [cur] changes otherwise *)
}

(* An island's complete state is plain data plus one Rng word, so a
   snapshot taken at a migration barrier (when no worker owns the island)
   captures everything a bit-identical continuation needs; the memo only
   saves time. *)
let snap_island (isl : island) =
  {
    s_idx = isl.idx; s_rng = Rng.state isl.rng; s_iters = isl.iters;
    s_iter = isl.iter; s_cur_score = isl.cur_score; s_cur = isl.cur;
    s_best_score = isl.best_score; s_best = isl.best;
    s_trace_rev = isl.trace_rev; s_modeled_s = isl.modeled_s;
    s_accepted = isl.accepted; s_invalid = isl.invalid;
    s_repaired = isl.repaired; s_incremental = isl.incremental;
    s_rescheduled = isl.rescheduled;
  }

let restore_island s =
  {
    idx = s.s_idx; rng = Rng.of_state s.s_rng; iters = s.s_iters;
    iter = s.s_iter; cur_score = s.s_cur_score; cur = s.s_cur;
    best_score = s.s_best_score; best = s.s_best;
    trace_rev = s.s_trace_rev; modeled_s = s.s_modeled_s;
    accepted = s.s_accepted; invalid = s.s_invalid;
    repaired = s.s_repaired; incremental = s.s_incremental;
    rescheduled = s.s_rescheduled; memo = Predict.memo (); usage = None;
  }

let usage_of ~attrs per_app =
  Obs.Span.with_span "dse_usage" ~attrs @@ fun () -> Mutate.usage_of (List.concat per_app)

(* One annealing iteration; draw-for-draw identical to the historical
   sequential explorer so a single island reproduces it bit for bit. *)
let step ~pool ~config ~device ~model ~caps ~systems apps isl =
  let accepted0 = isl.accepted and invalid0 = isl.invalid in
  let iter = isl.iter + 1 in
  let temp =
    config.initial_temp
    *. exp (-3.0 *. float_of_int iter /. float_of_int (max 1 isl.iters))
  in
  let cur = isl.cur in
  let attrs = [ ("island", string_of_int isl.idx) ] in
  let usage =
    match isl.usage with
    | Some (key, u) when key == cur.per_app -> u
    | Some _ | None ->
      let u = usage_of ~attrs cur.per_app in
      isl.usage <- Some (cur.per_app, u);
      u
  in
  let preserve = config.mutation_policy = Schedule_preserving in
  let adg', desc =
    Mutate.propose isl.rng ~preserve ~caps_pool:caps cur.sys.Sys_adg.adg usage
  in
  let additive =
    String.length desc >= 3
    && (String.sub desc 0 3 = "add"
       || String.length desc >= 6 && String.sub desc 0 6 = "retune")
  in
  isl.modeled_s <- isl.modeled_s +. Time.iteration_overhead_s;
  (if Adg.node_count adg' > 400 then isl.invalid <- isl.invalid + 1
   else
     let sys' = Sys_adg.with_adg cur.sys adg' in
     match schedule_all pool ~attrs ~additive sys' apps cur.per_app with
     | None -> isl.invalid <- isl.invalid + 1
     | Some outcome -> (
       isl.repaired <- isl.repaired + outcome.n_repaired;
       isl.incremental <- isl.incremental + outcome.n_incremental;
       isl.rescheduled <- isl.rescheduled + outcome.n_rescheduled;
       isl.modeled_s <-
         isl.modeled_s
         +. (Time.repair_per_app_s *. float_of_int outcome.n_repaired)
         +. (Time.incremental_per_app_s *. float_of_int outcome.n_incremental)
         +. (Time.reschedule_per_app_s *. float_of_int outcome.n_rescheduled);
       (* The candidate's usage, needed next step if it is accepted, is
          computed beside the system DSE.  Either job may run on either
          domain: the island's memo is touched only by the system job while
          the island waits. *)
       let system, usage' =
         both pool
           (fun () ->
             system_dse ~attrs ~memo:isl.memo ~device ~model systems adg' outcome.per_app)
           (fun () -> usage_of ~attrs outcome.per_app)
       in
       match system with
       | None -> isl.invalid <- isl.invalid + 1
       | Some (score', sysp', obj', pred') ->
         let accept =
           score' >= isl.cur_score
           ||
           let delta = (score' -. isl.cur_score) /. Float.max 1e-9 isl.cur_score in
           Rng.float isl.rng 1.0 < exp (delta /. Float.max 1e-6 temp)
         in
         if accept then begin
           isl.accepted <- isl.accepted + 1;
           let d =
             {
               sys = Sys_adg.make adg' sysp';
               per_app = outcome.per_app;
               objective = obj';
               predicted = pred';
             }
           in
           isl.cur_score <- score';
           isl.cur <- d;
           isl.usage <- Some (d.per_app, usage');
           if score' > isl.best_score then begin
             isl.best_score <- score';
             isl.best <- d
           end
         end));
  isl.iter <- iter;
  if Obs.on () then begin
    Obs.incr m_iterations;
    if isl.accepted > accepted0 then Obs.incr m_moves_accepted;
    if isl.invalid > invalid0 then Obs.incr m_moves_invalid
  end;
  isl.trace_rev <-
    { island = isl.idx; iter; modeled_hours = isl.modeled_s /. 3600.0;
      est_ipc = isl.cur.objective }
    :: isl.trace_rev

let run_span ~pool ~config ~device ~model ~caps ~systems apps isl ~upto =
  Obs.Span.with_span "dse_island"
    ~attrs:
      [ ("island", string_of_int isl.idx); ("upto", string_of_int upto) ]
  @@ fun () ->
  while isl.iter < upto do
    step ~pool ~config ~device ~model ~caps ~systems apps isl
  done;
  if Obs.on () then Obs.set_gauge (island_gauge isl.idx) isl.cur.objective

let explore ?(config = default_config) ?(device = Device.default) ?checkpoint
    ?(resume = false) ?stop_after_rounds ~model apps =
  if config.islands < 1 then invalid_arg "Dse.explore: islands < 1";
  if config.migration_interval < 1 then
    invalid_arg "Dse.explore: migration_interval < 1";
  (match checkpoint with
  | Some cp when cp.interval < 1 ->
    invalid_arg "Dse.explore: checkpoint interval < 1"
  | _ -> ());
  (match stop_after_rounds with
  | Some k when k < 1 -> invalid_arg "Dse.explore: stop_after_rounds < 1"
  | _ -> ());
  if resume && checkpoint = None then
    invalid_arg "Dse.explore: resume requested without a checkpoint";
  let t_start = Unix.gettimeofday () in
  let caps = caps_pool apps in
  let systems = candidate_systems config.topologies in
  (* hashing every variant of every app is read only by checkpointing *)
  let signature = lazy (run_signature config apps) in
  let pregen_s = Time.pregen_per_app_s *. float_of_int (List.length apps) in
  let n = config.islands in
  (* Total budget split across islands; earlier islands take the remainder,
     so islands=1 runs exactly [config.iterations]. *)
  let share i =
    (config.iterations / n) + (if i < config.iterations mod n then 1 else 0)
  in
  (* Seed designs of increasing size: the smallest mesh able to host every
     workload at some unrolling degree wins. *)
  let seed_candidates =
    let engines =
      [
        { (Comp.default_engine Comp.Dma) with indirect = true };
        { (Comp.default_engine Comp.Spad) with indirect = true };
        Comp.default_engine Comp.Rec;
        Comp.default_engine Comp.Gen;
        Comp.default_engine Comp.Reg;
      ]
    in
    [
      Builder.seed ~caps ~width_bits:64;
      Builder.mesh ~rows:3 ~cols:4 ~caps ~sw_width_bits:128 ~width_bits:64
        ~in_port_widths:[ 32; 32; 16; 16; 16; 8; 8; 8 ]
        ~out_port_widths:[ 32; 16; 16; 8; 8 ] ~engines;
      Builder.mesh ~rows:4 ~cols:6 ~caps ~sw_width_bits:256 ~width_bits:64
        ~in_port_widths:[ 64; 32; 32; 16; 16; 16; 8; 8; 8; 8 ]
        ~out_port_widths:[ 64; 32; 16; 16; 8; 8 ] ~engines;
      Builder.mesh ~rows:5 ~cols:8 ~caps ~sw_width_bits:256 ~width_bits:64
        ~in_port_widths:[ 64; 64; 32; 32; 16; 16; 16; 16; 8; 8; 8; 8 ]
        ~out_port_widths:[ 64; 32; 32; 16; 16; 8; 8; 8 ] ~engines;
    ]
  in
  with_pool @@ fun pool ->
  let initial sys_adg =
    let apps = Array.of_list apps in
    let mapped = Array.make (Array.length apps) (Ok (Error "")) in
    map_apps pool ~parts:1 (Array.length apps)
      (fun _ i -> mapped.(i) <- attempt (fun () -> Spatial.schedule_app sys_adg apps.(i)))
      (fun i -> Result.to_option (get mapped.(i)))
  in
  (* Start from the largest seed that hosts the workloads and fits the
     device: the schedule-preserving prunes then shrink it with a reward at
     every step, which anneals far better than growing across the reward
     plateau between unroll levels. *)
  let fresh_islands () =
    (* the seed sweep's predictions are island 0's first memo entries *)
    let seed_memo = Predict.memo () in
    let seed_adg, prior0, (score0, sysp0, obj0, pred0) =
      Obs.Span.with_span "dse_seed" @@ fun () ->
      let rec pick = function
        | [] -> failwith "Dse.explore: no seed design can host the workloads"
        | adg :: rest -> (
          match initial (Sys_adg.make adg System.default) with
          | Some p -> (
            match system_dse ~memo:seed_memo ~device ~model systems adg p with
            | Some r -> (adg, p, r)
            | None -> pick rest)
          | None -> pick rest)
      in
      pick (List.rev seed_candidates)
    in
    let init_design =
      { sys = Sys_adg.make seed_adg sysp0; per_app = prior0; objective = obj0;
        predicted = pred0 }
    in
    List.mapi
      (fun i rng ->
        { idx = i; rng; iters = share i; iter = 0; cur_score = score0;
          cur = init_design; best_score = score0; best = init_design;
          trace_rev = []; modeled_s = pregen_s; accepted = 0; invalid = 0;
          repaired = 0; incremental = 0; rescheduled = 0;
          memo = (if i = 0 then seed_memo else Predict.memo ()); usage = None })
      (Rng.streams config.seed n)
  in
  (* Resume skips the seed-design selection entirely: the snapshot holds
     the complete barrier state of every island (including the Rng word),
     so the continuation is draw-for-draw the uninterrupted run. *)
  let islands, elites0 =
    if not resume then (fresh_islands (), [])
    else
      let cp = Option.get checkpoint in
      match Store.get cp.store ~ns:checkpoint_ns ~key:cp.key with
      | None -> failwith "Dse.explore: no checkpoint to resume from"
      | Some blob -> (
        match
          (Codec.decode_marshal ~schema:checkpoint_schema blob
            : (snapshot, string) Stdlib.result)
        with
        | Error e -> failwith ("Dse.explore: unreadable checkpoint: " ^ e)
        | Ok snap ->
          if snap.snap_sig <> Lazy.force signature then
            failwith
              "Dse.explore: checkpoint was written by a different \
               configuration or workload";
          (List.map restore_island snap.snap_islands, snap.snap_elites))
  in
  (* The shared elite pool: (score, design) pairs published at migration
     barriers, best first, capped.  Driver-owned, mutated only between
     rounds, so migration is deterministic regardless of worker timing. *)
  let elites = ref elites0 in
  let migrate () =
    List.iter
      (fun isl -> elites := (isl.best_score, isl.best) :: !elites)
      islands;
    elites :=
      List.filteri
        (fun i _ -> i < max 2 n)
        (List.stable_sort (fun (a, _) (b, _) -> compare b a) !elites);
    (* every island just added its best, and there is at least one *)
    let es, ed = List.hd !elites in
    List.iter
      (fun isl ->
        (* island 0 is the anchor chain: it never adopts migrants, so it
           replays the sequential explorer exactly and the parallel run's
           best can only dominate it *)
        if isl.idx > 0 && isl.cur_score < es then begin
          isl.cur_score <- es;
          isl.cur <- ed
        end)
      islands
  in
  (* Checkpoints are written by the driver at migration barriers only, when
     every worker has joined and no job owns any island, so a snapshot is a
     consistent cut of the whole run. *)
  let write_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some cp ->
      Obs.Span.with_span "dse_checkpoint" @@ fun () ->
      let snap =
        { snap_sig = Lazy.force signature;
          snap_islands = List.map snap_island islands;
          snap_elites = !elites }
      in
      Store.put cp.store ~ns:checkpoint_ns ~key:cp.key
        (Codec.encode_marshal ~schema:checkpoint_schema snap);
      Obs.incr m_checkpoints
  in
  let rounds_done = ref 0 in
  let rec rounds () =
    match List.filter (fun isl -> isl.iter < isl.iters) islands with
    | [] -> ()
    | active ->
      let parent = Obs.Span.current_id () in
      ignore
        (Pool.map pool
           (under parent (fun isl ->
                run_span ~pool ~config ~device ~model ~caps ~systems apps isl
                  ~upto:(min isl.iters (isl.iter + config.migration_interval))))
           active);
      if n > 1 then migrate ();
      incr rounds_done;
      (match checkpoint with
      | Some cp when !rounds_done mod cp.interval = 0 -> write_checkpoint ()
      | _ -> ());
      (match stop_after_rounds with
      | Some k when !rounds_done >= k -> ()
      | _ -> rounds ())
  in
  rounds ();
  (* One final snapshot at loop exit: a stopped run resumes from exactly
     where it halted, and resuming a completed run replays no work. *)
  write_checkpoint ();
  let best_isl =
    List.fold_left
      (fun acc isl -> if isl.best_score > acc.best_score then isl else acc)
      (List.hd islands) islands
  in
  (* Merge per-island traces once, after every worker has joined: stable
     sort on modeled time keeps a single island's trace untouched and makes
     the merged trace monotone in modeled_hours. *)
  let trace =
    List.stable_sort
      (fun (a : trace_point) (b : trace_point) ->
        compare a.modeled_hours b.modeled_hours)
      (List.concat_map (fun isl -> List.rev isl.trace_rev) islands)
  in
  let sum f = List.fold_left (fun acc isl -> acc + f isl) 0 islands in
  let modeled_s =
    List.fold_left (fun acc isl -> Float.max acc isl.modeled_s) 0.0 islands
  in
  {
    best = best_isl.best;
    trace;
    stats =
      {
        accepted = sum (fun i -> i.accepted);
        invalid = sum (fun i -> i.invalid);
        repaired = sum (fun i -> i.repaired);
        incremental = sum (fun i -> i.incremental);
        rescheduled = sum (fun i -> i.rescheduled);
      };
    wall_seconds = Unix.gettimeofday () -. t_start;
    modeled_hours = modeled_s /. 3600.0;
  }

let explore_kernels ?config ?device ?(tuned = false) ~model kernels =
  explore ?config ?device ~model (compile_apps ~tuned kernels)
