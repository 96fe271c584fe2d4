(* The island-model parallel DSE: determinism, the anchor-island dominance
   contract, and the merged-trace invariants. *)

open Overgen_workload
module Dse = Overgen_dse.Dse
module Predict = Overgen_mlp.Predict
module Serial = Overgen_adg.Serial
module Obs = Overgen_obs.Obs

let model () = Models.trained 11

let apps = lazy (Dse.compile_apps ~tuned:false [ Kernels.find "vecmax" ])

let cfg ?(iterations = 40) ?(islands = 1) ?(migration_interval = 10) seed =
  { Dse.default_config with seed; iterations; islands; migration_interval }

let explore config = Dse.explore ~config ~model:(model ()) (Lazy.force apps)

let same_result (a : Dse.result) (b : Dse.result) =
  Alcotest.(check (float 1e-12)) "same objective" a.best.objective b.best.objective;
  Alcotest.(check string) "same design"
    (Serial.fingerprint a.best.sys) (Serial.fingerprint b.best.sys);
  Alcotest.(check int) "same trace length" (List.length a.trace) (List.length b.trace);
  List.iter2
    (fun (x : Dse.trace_point) (y : Dse.trace_point) ->
      Alcotest.(check int) "same island" x.island y.island;
      Alcotest.(check int) "same iter" x.iter y.iter;
      Alcotest.(check (float 1e-12)) "same est_ipc" x.est_ipc y.est_ipc;
      Alcotest.(check (float 1e-12)) "same modeled time" x.modeled_hours
        y.modeled_hours)
    a.trace b.trace;
  Alcotest.(check int) "same accepted" a.stats.accepted b.stats.accepted;
  Alcotest.(check int) "same invalid" a.stats.invalid b.stats.invalid;
  Alcotest.(check int) "same repaired" a.stats.repaired b.stats.repaired;
  Alcotest.(check int) "same incremental" a.stats.incremental b.stats.incremental;
  Alcotest.(check int) "same rescheduled" a.stats.rescheduled b.stats.rescheduled

let test_single_island_deterministic () =
  same_result (explore (cfg 21)) (explore (cfg 21))

let test_parallel_deterministic () =
  (* worker timing must not leak into the result *)
  same_result
    (explore (cfg ~iterations:80 ~islands:4 22))
    (explore (cfg ~iterations:80 ~islands:4 22))

let test_anchor_dominance () =
  (* same modeled-hours budget: islands run concurrently, so 4 islands x 40
     iterations cost the same modeled time as a sequential 40-iteration run.
     Island 0 replays the sequential chain exactly (same stream, never
     adopts migrants), so the parallel best can only dominate. *)
  let seq = explore (cfg ~iterations:40 21) in
  let par = explore (cfg ~iterations:160 ~islands:4 21) in
  Alcotest.(check bool) "parallel best >= sequential best" true
    (par.best.objective >= seq.best.objective -. 1e-9)

let test_trace_covers_budget_and_is_monotone () =
  let r = explore (cfg ~iterations:50 ~islands:3 23) in
  Alcotest.(check int) "one trace point per iteration of the total budget" 50
    (List.length r.trace);
  let rec monotone = function
    | (a : Dse.trace_point) :: (b : Dse.trace_point) :: rest ->
      Alcotest.(check bool) "modeled_hours monotone" true
        (a.modeled_hours <= b.modeled_hours +. 1e-12);
      monotone (b :: rest)
    | _ -> ()
  in
  monotone r.trace;
  (* every island contributed, with island-local iteration numbering *)
  List.iter
    (fun isl ->
      let pts =
        List.filter (fun (t : Dse.trace_point) -> t.island = isl) r.trace
      in
      Alcotest.(check bool)
        (Printf.sprintf "island %d contributed" isl)
        true
        (List.length pts > 0);
      List.iteri
        (fun i (t : Dse.trace_point) ->
          Alcotest.(check int) "island-local iters are 1..n" (i + 1) t.iter)
        (List.sort
           (fun (a : Dse.trace_point) (b : Dse.trace_point) ->
             compare a.iter b.iter)
           pts))
    [ 0; 1; 2 ];
  (* modeled time is the slowest island, not the sum *)
  let island_hours isl =
    List.fold_left
      (fun acc (t : Dse.trace_point) ->
        if t.island = isl then Float.max acc t.modeled_hours else acc)
      0.0 r.trace
  in
  let max_h = List.fold_left (fun m i -> Float.max m (island_hours i)) 0.0 [ 0; 1; 2 ] in
  Alcotest.(check (float 1e-9)) "modeled_hours = max island" max_h r.modeled_hours

let test_config_validation () =
  Alcotest.check_raises "islands < 1"
    (Invalid_argument "Dse.explore: islands < 1") (fun () ->
      ignore (explore { (cfg 1) with islands = 0 }));
  Alcotest.check_raises "migration_interval < 1"
    (Invalid_argument "Dse.explore: migration_interval < 1") (fun () ->
      ignore (explore { (cfg 1) with migration_interval = 0 }));
  Alcotest.check_raises "resume without checkpoint"
    (Invalid_argument "Dse.explore: resume requested without a checkpoint")
    (fun () ->
      ignore
        (Dse.explore ~config:(cfg 1) ~resume:true ~model:(model ())
           (Lazy.force apps)))

(* ---------------- checkpoint / resume ---------------- *)

module Store = Overgen_store.Store

let with_store f =
  let path = Filename.temp_file "overgen-test-dse" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Store.open_ ~path () with
      | Ok s -> Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)
      | Error e -> Alcotest.failf "open store: %s" e)

(* The kill-and-restart contract: interrupt a run at a migration barrier,
   resume it from the durable checkpoint in a "new process" (nothing
   shared but the store file), and the result must be bit-identical to the
   uninterrupted run — same design, same trace, same stats, same draws. *)
let resume_matches_uninterrupted ~islands ~stop_after =
  let config = cfg ~iterations:80 ~islands 27 in
  let full = explore config in
  with_store @@ fun store ->
  let checkpoint = { Dse.store; key = "run"; interval = 1 } in
  let partial =
    Dse.explore ~config ~checkpoint ~stop_after_rounds:stop_after
      ~model:(model ()) (Lazy.force apps)
  in
  Alcotest.(check bool) "interrupted run did less work" true
    (List.length partial.trace < List.length full.trace);
  let resumed =
    Dse.explore ~config ~checkpoint ~resume:true ~model:(model ())
      (Lazy.force apps)
  in
  same_result full resumed

let test_resume_single_island () =
  resume_matches_uninterrupted ~islands:1 ~stop_after:3

let test_resume_parallel () =
  (* 80 iterations over 4 islands at interval 10 is 2 migration rounds:
     stopping after 1 interrupts mid-run with migrated elites in play *)
  resume_matches_uninterrupted ~islands:4 ~stop_after:1

let test_resume_refuses_other_config () =
  with_store @@ fun store ->
  let checkpoint = { Dse.store; key = "run"; interval = 1 } in
  ignore
    (Dse.explore ~config:(cfg 27) ~checkpoint ~stop_after_rounds:1
       ~model:(model ()) (Lazy.force apps));
  (* same key, different seed: the signature stamp must refuse it *)
  Alcotest.check_raises "signature mismatch refused"
    (Failure
       "Dse.explore: checkpoint was written by a different configuration or \
        workload")
    (fun () ->
      ignore
        (Dse.explore ~config:(cfg 28) ~checkpoint ~resume:true
           ~model:(model ()) (Lazy.force apps)))

(* The mutation policy is part of the signature: a checkpoint written by a
   Random-policy run does not resume under the preserving policy. *)
let test_resume_refuses_other_policy () =
  with_store @@ fun store ->
  let checkpoint = { Dse.store; key = "run"; interval = 1 } in
  ignore
    (Dse.explore
       ~config:{ (cfg 27) with mutation_policy = Dse.Random }
       ~checkpoint ~stop_after_rounds:1 ~model:(model ()) (Lazy.force apps));
  Alcotest.check_raises "signature mismatch refused"
    (Failure
       "Dse.explore: checkpoint was written by a different configuration or \
        workload")
    (fun () ->
      ignore
        (Dse.explore ~config:(cfg 27) ~checkpoint ~resume:true
           ~model:(model ()) (Lazy.force apps)))

let test_resume_requires_checkpoint_record () =
  with_store @@ fun store ->
  let checkpoint = { Dse.store; key = "never-written"; interval = 1 } in
  Alcotest.check_raises "missing checkpoint"
    (Failure "Dse.explore: no checkpoint to resume from") (fun () ->
      ignore
        (Dse.explore ~config:(cfg 27) ~checkpoint ~resume:true
           ~model:(model ()) (Lazy.force apps)))

let test_completed_run_resumes_to_itself () =
  (* resuming a finished run replays nothing and returns the same result *)
  with_store @@ fun store ->
  let config = cfg ~iterations:40 29 in
  let checkpoint = { Dse.store; key = "run"; interval = 2 } in
  let done_ =
    Dse.explore ~config ~checkpoint ~model:(model ()) (Lazy.force apps)
  in
  let again =
    Dse.explore ~config ~checkpoint ~resume:true ~model:(model ())
      (Lazy.force apps)
  in
  same_result done_ again

(* Back-to-back explorations share one worker pool: once the first has
   started it, later ones (single- and multi-island) leave no extra thread
   behind, and every span of all six runs comes from the caller's domain or
   one of the pool's, never from a domain spawned for one call. *)
let test_no_domain_per_call () =
  let tasks = "/proc/self/task" in
  if not (Sys.file_exists tasks) then Alcotest.skip ();
  let threads () = Array.length (Sys.readdir tasks) in
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (explore (cfg ~iterations:4 ~islands:2 24));
      let after_first = threads () in
      List.iter
        (fun islands -> ignore (explore (cfg ~iterations:4 ~islands 24)))
        [ 1; 2; 3; 1; 2 ];
      Alcotest.(check int) "threads after five more explores" after_first (threads ()));
  let domains =
    List.sort_uniq compare (List.map (fun (s : Obs.Span.span) -> s.domain) (Obs.Span.spans ()))
  in
  Obs.Span.reset ();
  Alcotest.(check bool)
    (Printf.sprintf "%d recording domains at most the caller plus the pool"
       (List.length domains))
    true
    (List.length domains <= max 2 (Domain.recommended_domain_count ()))

(* Poll [/proc/self/task] until it holds fewer than [n] entries; false
   after [seconds]. *)
let threads_drop_below ?(seconds = 10.0) n =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    if Array.length (Sys.readdir "/proc/self/task") < n then true
    else if Unix.gettimeofday () > deadline then false
    else (Unix.sleepf 0.05; poll ())
  in
  poll ()

(* A process that stops exploring does not keep the pool's domain: about
   a second after the last exploration returns, the worker domain and the
   thread that watched it are gone, and a later exploration starts a new
   pool and gets the same result. *)
let test_idle_pool_released () =
  let tasks = "/proc/self/task" in
  if not (Sys.file_exists tasks) then Alcotest.skip ();
  let first = explore (cfg ~iterations:4 24) in
  let busy = Array.length (Sys.readdir tasks) in
  Alcotest.(check bool) "worker domain released when idle" true (threads_drop_below busy);
  same_result first (explore (cfg ~iterations:4 24))

(* ---------------- one iteration's rescore as pool jobs ---------------- *)

module Spatial = Overgen_scheduler.Spatial
module Pool = Overgen_par.Pool
module Fault = Overgen_fault.Fault
module Compile = Overgen_mdfg.Compile
module Dfg = Overgen_mdfg.Dfg
module Schedule = Overgen_scheduler.Schedule
open Overgen_adg

let compiled names = List.map (fun n -> Compile.compile ~tuned:false (Kernels.find n)) names

let schedules sys (c : Compile.compiled) =
  match Spatial.schedule_app sys c with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" c.kname e

(* The sequential rescore the job split must reproduce: each app in
   order, reschedule, then after an additive move a full re-map of a
   repaired app, kept when no worse. *)
let sequential ~additive sys apps prior =
  let ipc s = (Overgen_perf.Perf.app sys s).app_ipc in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (c, p) :: rest -> (
      match Spatial.reschedule sys c ~prior:p with
      | Error _ -> None
      | Ok (s, Spatial.Repaired) when additive -> (
        match Spatial.schedule_app sys c with
        | Ok s' -> go (((if ipc s' >= ipc s then s' else s), Spatial.Repaired, true) :: acc) rest
        | Error _ -> go ((s, Spatial.Repaired, false) :: acc) rest)
      | Ok (s, o) -> go ((s, o, false) :: acc) rest)
  in
  go [] (List.combine apps prior)

let check_rescore label want (got : Dse.sched_outcome option) =
  match (want, got) with
  | None, None -> ()
  | Some rescored, Some (o : Dse.sched_outcome) ->
    let count f = List.length (List.filter f rescored) in
    Alcotest.(check int) (label ^ " repaired")
      (count (fun (_, o, _) -> o = Spatial.Repaired)) o.n_repaired;
    Alcotest.(check int) (label ^ " incremental")
      (count (fun (_, o, _) -> o = Spatial.Incremental)) o.n_incremental;
    Alcotest.(check int) (label ^ " rescheduled")
      (count (fun (_, o, full) -> o = Spatial.Full || full)) o.n_rescheduled;
    Alcotest.(check bool) (label ^ " schedules") true
      (List.map (fun (s, _, _) -> s) rescored = o.per_app)
  | Some _, None | None, Some _ -> Alcotest.failf "%s: one side failed" label

(* Run [f pool] on a sequential pool and on one worker domain. *)
let on_pools f =
  List.iter
    (fun (label, mode) ->
      let pool = Pool.create mode in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f label pool))
    [ ("sequential", Pool.Deterministic); ("2 domains", Pool.Domains 1) ]

let schedule_app_visits f =
  let cfg =
    { Fault.default_config with rate = 0.0; points = [ Fault.Points.scheduler_schedule_app ] }
  in
  Fault.with_faults cfg (fun () ->
      let r = f () in
      let _, visits, _ =
        List.find (fun (p, _, _) -> p = Fault.Points.scheduler_schedule_app) (Fault.stats ())
      in
      (r, visits))

(* The general overlay with one capability taken from the PE of mm's
   first instruction: repair cannot keep that placement and the
   incremental tier re-places it.  vecmax does not use the PE and is
   repaired. *)
let stripped_general apps =
  let sys = Builder.general_overlay () in
  let prior = List.map (schedules sys) apps in
  let s = List.hd (List.hd prior) in
  let inst, pe = Schedule.Imap.min_binding s.inst_pe in
  let cap =
    match (Dfg.node s.variant.dfg inst).kind with
    | Dfg.Inst { op; dtype; _ } -> (op, dtype)
    | Dfg.Const _ | Dfg.Input _ | Dfg.Output _ -> Alcotest.fail "instruction expected"
  in
  let adg =
    match Adg.comp_exn sys.adg pe with
    | Comp.Pe p -> Adg.set_comp sys.adg pe (Comp.Pe { p with caps = Op.Cap.remove cap p.caps })
    | _ -> Alcotest.fail "PE expected"
  in
  (Sys_adg.with_adg sys adg, prior)

(* An additive iteration whose first app answers Incremental: its
   speculative re-map runs (it visits the fault point like every other)
   and is discarded, and the result is the sequential loop's. *)
let test_additive_incremental_discards_remap () =
  let apps = compiled [ "mm"; "fir"; "vecmax" ] in
  let sys', prior = stripped_general apps in
  let want = sequential ~additive:true sys' apps prior in
  (match want with
  | Some ((_, Spatial.Incremental, false) :: rest)
    when List.exists (fun (_, o, kept) -> o = Spatial.Repaired && kept) rest -> ()
  | Some _ | None -> Alcotest.fail "expected mm Incremental and a repaired app re-mapped");
  on_pools (fun label pool ->
      let got, visits =
        schedule_app_visits (fun () -> Dse.schedule_all pool ~additive:true sys' apps prior)
      in
      check_rescore label want got;
      Alcotest.(check int) (label ^ ": every app re-mapped") 3 visits)

(* No app fits a one-PE mesh.  App 0 fails first, so the later apps'
   reschedule jobs return at once: one repair pass runs, not three.  After
   an additive move the re-maps, queued first, all ran already. *)
let test_early_failure_skips_later_jobs () =
  let apps = compiled [ "mm"; "fir"; "vecmax" ] in
  let general = Builder.general_overlay () in
  let prior = List.map (schedules general) apps in
  let tiny =
    Sys_adg.with_adg general
      (Builder.mesh ~rows:1 ~cols:1 ~caps:(Op.Cap.of_ops [ Op.Add ] [ Dtype.I16 ])
         ~sw_width_bits:64 ~width_bits:64 ~in_port_widths:[ 64 ] ~out_port_widths:[ 64 ]
         ~engines:[ Comp.default_engine Comp.Dma ])
  in
  let repairs =
    Obs.Metrics.counter Obs.Metrics.default "overgen_scheduler_repairs_total"
  in
  let pool = Pool.create Pool.Deterministic in
  List.iter
    (fun (additive, remaps) ->
      let label = if additive then "additive" else "plain" in
      Alcotest.(check bool) (label ^ ": sequential fails") true
        (sequential ~additive tiny apps prior = None);
      Obs.enable ();
      let r0 = Obs.Metrics.counter_value repairs in
      let got, visits =
        Fun.protect ~finally:Obs.disable (fun () ->
            schedule_app_visits (fun () -> Dse.schedule_all pool ~additive tiny apps prior))
      in
      Alcotest.(check bool) (label ^ ": fails") true (got = None);
      Alcotest.(check int) (label ^ ": one repair pass") 1
        (Obs.Metrics.counter_value repairs - r0);
      Alcotest.(check int) (label ^ ": full re-maps") remaps visits)
    [ (false, 1); (true, 3) ]

(* A re-map that raises: discarded behind an Incremental answer, and
   re-raised for the first repaired app, as the sequential loop would. *)
let test_remap_exception_in_app_order () =
  let apps = compiled [ "mm"; "vecmax" ] in
  let sys', prior = stripped_general apps in
  let cfg =
    { Fault.default_config with
      rate = 1.0; transient_fraction = 0.0; points = [ Fault.Points.scheduler_schedule_app ] }
  in
  on_pools (fun label pool ->
      match Fault.with_faults cfg (fun () -> Dse.schedule_all pool ~additive:true sys' apps prior) with
      | _ -> Alcotest.failf "%s: the repaired app's re-map must raise" label
      | exception Fault.Injected _ -> ())

(* Pool jobs nest under the span that submitted them: in a traced
   two-island run on two domains, every job span's parent is its own
   island's span (or, for the seed design's sweep, the seed span). *)
let test_job_spans_parented () =
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore
        (Dse.explore
           ~config:(cfg ~iterations:40 ~islands:2 25)
           ~model:(model ())
           (Dse.compile_apps ~tuned:false [ Kernels.find "vecmax"; Kernels.find "fir" ])));
  let spans = Obs.Span.spans () in
  Obs.Span.reset ();
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.Span.span) -> Hashtbl.replace by_id s.id s) spans;
  let island (s : Obs.Span.span) = List.assoc_opt "island" s.attrs in
  let jobs = [ "dse_reschedule"; "dse_additive"; "dse_system"; "dse_usage" ] in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true
        (List.exists (fun (s : Obs.Span.span) -> s.name = name) spans))
    jobs;
  List.iter
    (fun (s : Obs.Span.span) ->
      if List.mem s.name jobs then
        match Hashtbl.find_opt by_id s.parent with
        | None -> Alcotest.failf "%s %d: parent %d is no span" s.name s.id s.parent
        | Some p ->
          let ok =
            match island s with
            | Some _ -> p.name = "dse_island" && island p = island s
            | None -> p.name = "dse_seed"
          in
          if not ok then
            Alcotest.failf "%s of island %s under %s of island %s" s.name
              (Option.value ~default:"-" (island s)) p.name
              (Option.value ~default:"-" (island p)))
    spans

let tests =
  [
    Alcotest.test_case "single island deterministic" `Quick
      test_single_island_deterministic;
    Alcotest.test_case "parallel run deterministic" `Slow
      test_parallel_deterministic;
    Alcotest.test_case "anchor dominance" `Slow test_anchor_dominance;
    Alcotest.test_case "merged trace invariants" `Slow
      test_trace_covers_budget_and_is_monotone;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "resume matches uninterrupted (1 island)" `Quick
      test_resume_single_island;
    Alcotest.test_case "resume matches uninterrupted (4 islands)" `Slow
      test_resume_parallel;
    Alcotest.test_case "resume refuses a different config" `Quick
      test_resume_refuses_other_config;
    Alcotest.test_case "resume requires a checkpoint record" `Quick
      test_resume_requires_checkpoint_record;
    Alcotest.test_case "completed run resumes to itself" `Quick
      test_completed_run_resumes_to_itself;
    Alcotest.test_case "explore spawns no domain per call" `Quick
      test_no_domain_per_call;
    Alcotest.test_case "idle DSE pool released" `Quick test_idle_pool_released;
    Alcotest.test_case "resume refuses a different policy" `Quick
      test_resume_refuses_other_policy;
    Alcotest.test_case "additive Incremental app discards its re-map" `Quick
      test_additive_incremental_discards_remap;
    Alcotest.test_case "early failure skips later jobs" `Quick
      test_early_failure_skips_later_jobs;
    Alcotest.test_case "re-map exception in app order" `Quick
      test_remap_exception_in_app_order;
    Alcotest.test_case "job spans under their island" `Quick test_job_spans_parented;
  ]
