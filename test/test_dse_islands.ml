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
  ]
