(* Workload [dse]: single-island design-space exploration of the DSP suite.
   Schedules heavily (repair, incremental re-placement and full re-maps
   through Spatial.reschedule) and calls the perf model and the MLP, but
   never simulates and never touches the wire or the cache.

   A run explores a fixed set of sub-seeds derived from --seed, each with
   the same iteration budget, and cycles through them as many times as
   --seconds sets; every repeat of a sub-seed must reproduce its first
   result bit for bit. *)

open Overgen_workload
module U = Util
module Dse = Overgen_dse.Dse
module Perf = Overgen_perf.Perf
module Predict = Overgen_mlp.Predict

let budget = 20
let distinct = 16

(* the seed whose results golden/dse.tsv records *)
let golden_seed = 1
let tail_q = 0.75

(* The work is set by --seconds, not by the clock: whole cycles over the
   sub-seeds, an exploration call having taken about this long on the
   2-core machine the benchmark was defined on. *)
let nominal_call_s = 0.3

(* Calls per measured window, each window paired with the machine speed
   around it (Util.paired_windows). *)
let window_calls = 4

let config (ctx : U.ctx) seed =
  { Dse.default_config with seed; iterations = (if ctx.tiny then 5 else budget); islands = 1 }

type call = { seed : int; res : Dse.result; wall_s : float; words : float }

let explore ctx ~model apps seed =
  let (res, words), wall_s =
    U.time (fun () ->
        U.minor_words (fun () ->
            U.span "dse" (fun () -> Dse.explore ~config:(config ctx seed) ~model apps)))
  in
  { seed; res; wall_s; words }

let golden_path dir = Filename.concat dir "dse.tsv"

let golden_line c =
  let s = c.res.Dse.stats in
  Printf.sprintf "%d\t%.17g\t%d\t%d\t%d\t%d\t%d\n" c.seed c.res.best.objective s.accepted
    s.invalid s.repaired s.incremental s.rescheduled

let setup () =
  let model = Overgen.train_model () in
  (model, Dse.compile_apps ~tuned:false (Kernels.of_suite Suite.Dsp))

(* Output checks over the first call of every sub-seed: the perf model
   replayed on the returned schedules reproduces the objective, and at the
   golden seed each line matches the committed table.  Dse.evaluate (a
   fresh schedule_app of every app) is reported, not enforced: annealed
   schedules can beat or be unreachable by a fresh greedy mapping. *)
let check (ctx : U.ctx) ~model apps firsts =
  let replay_errors =
    List.filter_map
      (fun c ->
        let best = c.res.Dse.best in
        let replayed = Perf.objective best.sys best.per_app in
        if replayed = best.objective then None
        else
          Some
            (Printf.sprintf "sub-seed %d: Perf.objective replay %.17g <> objective %.17g"
               c.seed replayed best.objective))
      firsts
  in
  let golden_errors =
    if ctx.seed <> golden_seed || ctx.tiny then []
    else
      let want =
        List.filter (fun l -> l.[0] <> '#') (U.lines (U.read_file (golden_path ctx.golden_dir)))
      in
      let got = List.map (fun c -> String.trim (golden_line c)) firsts in
      if want = got then []
      else
        List.concat
          (List.map2
             (fun w g -> if w = g then [] else [ Printf.sprintf "golden %S, got %S" w g ])
             want got)
        @ if List.length want <> List.length got then [ "golden table length differs" ] else []
  in
  let agree = ref 0 and differ = ref 0 and unschedulable = ref 0 in
  List.iter
    (fun c ->
      match Dse.evaluate ~model c.res.Dse.best.sys apps with
      | Ok d -> if d.objective = c.res.best.objective then incr agree else incr differ
      | Error _ -> incr unschedulable)
    firsts;
  ( replay_errors @ golden_errors,
    Printf.sprintf "Dse.evaluate of the best design: %d reproduce, %d differ, %d do not reschedule"
      !agree !differ !unschedulable )

let iters (ctx : U.ctx) = float_of_int (config ctx 0).iterations
let ms_per_iter ctx c = c.wall_s *. 1e3 /. iters ctx

(* Repeats must reproduce the first call of their sub-seed exactly. *)
let determinism_errors calls =
  let first = Hashtbl.create 16 in
  List.filter_map
    (fun c ->
      let key = (c.res.Dse.best.objective, c.res.stats) in
      match Hashtbl.find_opt first c.seed with
      | None ->
        Hashtbl.add first c.seed key;
        None
      | Some k when k = key -> None
      | Some _ -> Some (Printf.sprintf "sub-seed %d: a repeat diverged" c.seed))
    calls

(* Mean per-call cost of [f], over [reps] calls. *)
let per_call_us reps f =
  let (), t = U.time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done) in
  t *. 1e6 /. float_of_int reps

let replay_costs ~model firsts =
  let perf =
    U.mean
      (List.map
         (fun c ->
           let b = c.res.Dse.best in
           per_call_us 20 (fun () -> U.span "perf" (fun () -> Perf.objective b.sys b.per_app)))
         firsts)
  and mlp =
    U.mean
      (List.map
         (fun c ->
           let b = c.res.Dse.best in
           per_call_us 20 (fun () ->
               U.span "mlp" (fun () -> Predict.predict_accel model b.sys.adg)))
         firsts)
  in
  (perf, mlp)

(* One exploration of each sub-seed derived from the seed, skipping any on
   which the explorer raises, until [distinct] have completed. *)
let first_cycle (ctx : U.ctx) ~model apps =
  let want = if ctx.tiny then 2 else distinct in
  let rec go i done_ skipped =
    if List.length done_ = want then (List.rev done_, List.rev skipped)
    else if i >= 4 * want then failwith "too many sub-seeds make Dse.explore raise"
    else
      let seed = (ctx.seed * 1000) + i in
      match explore ctx ~model apps seed with
      | c -> go (i + 1) (c :: done_) skipped
      | exception e -> go (i + 1) done_ ((seed, Printexc.to_string e) :: skipped)
  in
  go 0 [] []

(* The golden table, written by [perfbench.exe golden]. *)
let golden_table () =
  let model, apps = setup () in
  let ctx =
    { U.seed = golden_seed; seconds = 0.0; trace = false; tiny = false; golden_dir = "";
      out_dir = "" }
  in
  "# sub-seed\tobjective\taccepted\tinvalid\trepaired\tincremental\trescheduled\n"
  ^ String.concat "" (List.map golden_line (fst (first_cycle ctx ~model apps)))

let run (ctx : U.ctx) =
  let t_setup = U.now () in
  let model, apps = setup () in
  (* the first cycle is the warm-up: it fills the scheduler's per-domain
     topology caches, picks the sub-seeds, and gives the reference result
     of each *)
  let firsts, skipped = first_cycle ctx ~model apps in
  let setup_s = U.now () -. t_setup in
  let subs = List.map (fun c -> c.seed) firsts in
  let k = List.length subs in
  let cycle_once () = List.map (explore ctx ~model apps) subs in
  let finish ?(table = "") ~calls ~e2e ~layer ~report ~extra () =
    let errors, evaluate_note = check ctx ~model apps firsts in
    let errors = errors @ determinism_errors (firsts @ calls) @ extra in
    {
      U.correct = errors = [];
      attempted = List.length calls;
      failed = 0;
      e2e;
      layer;
      report;
      table;
      notes =
        errors
        @ List.map
            (fun (s, e) -> Printf.sprintf "sub-seed %d skipped: Dse.explore raised %s" s e)
            skipped
        @ [ evaluate_note ];
    }
  in
  if not ctx.trace then begin
    let cycles =
      if ctx.tiny then 1
      else
        max
          ((U.min_samples_for tail_q + k - 1) / k)
          (int_of_float (Float.round (ctx.seconds /. (nominal_call_s *. float_of_int k))))
    in
    (* windows of [window_calls] calls in sub-seed order, each paired with
       the machine speed around it *)
    let order = List.concat (List.init cycles (fun _ -> subs)) |> Array.of_list in
    let per_window = if ctx.tiny then 1 else window_calls in
    let windows =
      U.paired_windows
        (Array.length order / per_window)
        (fun w -> List.init per_window (fun j -> explore ctx ~model apps order.((w * per_window) + j)))
    in
    let calls = List.concat_map fst windows in
    let slowdown = U.median (List.map snd windows) in
    let n = List.length calls in
    let raw_ips = float_of_int n *. iters ctx /. U.sum (List.map (fun c -> c.wall_s) calls) in
    let ips =
      U.median
        (List.map
           (fun (cs, s) ->
             float_of_int (List.length cs) *. iters ctx /. U.sum (List.map (fun c -> c.wall_s) cs) *. s)
           windows)
    in
    let per_iter = List.concat_map (fun (cs, s) -> List.map (fun c -> ms_per_iter ctx c /. s) cs) windows in
    let p50 = U.median per_iter and tail = U.percentile tail_q per_iter in
    let objective = U.median (List.map (fun c -> c.res.Dse.best.objective) firsts) in
    finish ~calls ~extra:[]
      ~e2e:
        [
          U.m "setup_s" "s" (setup_s /. slowdown);
          U.m "ok_frac" "ratio" 1.0;
          U.m "peak_rss_mb" "MiB" (U.vm_hwm_mb None);
          U.m "throughput_per_s" "1/s" ips;
          U.m "p50_ms" "ms" p50;
          U.m "tail_ms" "ms" tail;
          U.m "quality" "ratio" objective;
        ]
      ~layer:[]
      ~report:
        [
          ("raw_setup_s", "s", setup_s);
          ("raw_iters_per_s", "1/s", raw_ips);
          ("machine_slowdown", "x", slowdown);
          ("explore_calls", "count", float_of_int n);
          ("objective_ipc", "ratio", objective);
        ]
      ()
  end
  else begin
    let plain, plain_wall = U.time cycle_once in
    let perf_us, mlp_us = replay_costs ~model plain in
    let c = U.counter in
    let names =
      [
        "overgen_scheduler_variants_tried_total";
        "overgen_scheduler_variants_accepted_total";
        "overgen_scheduler_routing_failures_total";
        "overgen_scheduler_rollback_entries_total";
      ]
    in
    let before = List.map c names in
    let (traced, traced_wall), spans =
      U.traced (fun () ->
          let r = U.time cycle_once in
          ignore (replay_costs ~model (fst r));
          r)
    in
    let delta = List.map2 (fun name b -> float_of_int (c name - b)) names before in
    let tried, accepted, route_fail, rollback =
      match delta with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
    in
    let trace_errors, table = U.emit_trace ctx ~workload:"dse" spans in
    let sum_stat f = float_of_int (List.fold_left (fun acc c -> acc + f c.res.Dse.stats) 0 plain) in
    let total_iters = float_of_int k *. iters ctx in
    let traced_errors =
      if List.map (fun c -> (c.res.Dse.best.objective, c.res.stats)) traced
         = List.map (fun c -> (c.res.Dse.best.objective, c.res.stats)) plain
      then []
      else [ "the traced phase diverged from the untraced one" ]
    in
    finish ~table ~calls:plain ~extra:(trace_errors @ traced_errors) ~e2e:[]
      ~layer:
        [
          U.m "dse.accept_ratio" "ratio" (sum_stat (fun s -> s.accepted) /. total_iters);
          U.m "dse.invalid_ratio" "ratio" (sum_stat (fun s -> s.invalid) /. total_iters);
          U.m "dse.repaired" "count" (sum_stat (fun s -> s.repaired));
          U.m "dse.incremental" "count" (sum_stat (fun s -> s.incremental));
          U.m "dse.rescheduled" "count" (sum_stat (fun s -> s.rescheduled));
          U.m "dse.minor_words_per_iter" "words"
            (U.sum (List.map (fun c -> c.words) plain) /. total_iters);
          U.m "scheduler.variants_tried" "count" tried;
          U.m "scheduler.variant_accept_ratio" "ratio"
            (if tried > 0.0 then accepted /. tried else 0.0);
          U.m "scheduler.routing_failures" "count" route_fail;
          U.m "scheduler.rollback_entries" "count" rollback;
          U.m "perf.objective_us" "us" perf_us;
          U.m "mlp.predict_us" "us" mlp_us;
          U.m "obs.trace_overhead_frac" "ratio" ((traced_wall /. plain_wall) -. 1.0);
        ]
      ~report:[ ("iters_per_phase", "count", total_iters) ]
      ()
  end
