(* The compile-service benchmark scenario: the paper's deployment model at
   traffic.  One pre-generated overlay serves a multi-user request trace;
   we sweep the worker count and compare cold (cache disabled) against warm
   (content-addressed schedule cache), plus a capacity-starved cache to
   show LRU eviction under pressure. *)

open Overgen_workload
module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Trace = Overgen_service.Trace
module Telemetry = Overgen_service.Telemetry
module Admission = Overgen_fleet.Admission

let requests = 400

let replay registry trace ~mode ~caching ~capacity =
  let svc =
    Service.create ~mode ~caching ~cache:(Cache.create ~capacity ()) registry
  in
  let t0 = Unix.gettimeofday () in
  let responses = Admission.run (Admission.create svc) trace in
  let wall_s = Unix.gettimeofday () -. t0 in
  Service.shutdown svc;
  let telemetry = Service.telemetry svc in
  let snap = Telemetry.snapshot telemetry in
  let failures =
    List.length (List.filter (fun (r : Service.response) -> Result.is_error r.result) responses)
  in
  (wall_s, snap, Option.map Cache.stats (Service.cache svc), failures, telemetry)

let run () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Exp_common.general ()) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let spec =
    Trace.spec ~seed:42 ~requests ~users:8 ~working_set:3
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let trace = Trace.generate spec in
  Printf.printf
    "compile service: %d requests, 8 users, %d distinct (overlay, kernel) pairs\n\n"
    requests (Trace.distinct_keys spec);
  Printf.printf "%-28s %10s %9s %9s %9s %9s\n" "configuration" "req/s" "hit%" "p50 ms"
    "p99 ms" "failures";
  let row label
      ((wall_s, (snap : Telemetry.snapshot), cache_stats, failures, _) as r) =
    let hit =
      match cache_stats with
      | Some s -> 100.0 *. Cache.hit_rate s
      | None -> 0.0
    in
    Printf.printf "%-28s %10.1f %8.1f%% %9.3f %9.3f %9d\n" label
      (float_of_int requests /. wall_s)
      hit snap.p50_ms snap.p99_ms failures;
    r
  in
  let cap = 1024 in
  ignore
    (row "deterministic, cold"
       (replay registry trace ~mode:Service.Deterministic ~caching:false
          ~capacity:cap));
  let warm_wall_s, warm_snap, _, _, warm_telemetry =
    row "deterministic, warm"
      (replay registry trace ~mode:Service.Deterministic ~caching:true
         ~capacity:cap)
  in
  List.iter
    (fun n ->
      ignore
        (row
           (Printf.sprintf "%d workers, cold" n)
           (replay registry trace ~mode:(Service.Workers n) ~caching:false
              ~capacity:cap));
      ignore
        (row
           (Printf.sprintf "%d workers, warm" n)
           (replay registry trace ~mode:(Service.Workers n) ~caching:true
              ~capacity:cap)))
    [ 2; 4 ];
  (* capacity starvation: an LRU bound far under the working set *)
  let wall_s, _, stats, failures, _ =
    replay registry trace ~mode:Service.Deterministic ~caching:true ~capacity:4
  in
  (match stats with
  | Some s ->
    Printf.printf "%-28s %10.1f %8.1f%% %9s %9s %9d   (%d evictions, %d/%d entries)\n"
      "deterministic, 4-entry LRU"
      (float_of_int requests /. wall_s)
      (100.0 *. Cache.hit_rate s)
      "-" "-" failures s.evictions s.entries s.capacity
  | None -> ());
  print_newline ();
  (* Legacy one-screen telemetry report next to the metrics-registry view
     of the same service: the counts must agree line for line. *)
  print_string
    (Telemetry.report ~label:"deterministic, warm" ~wall_s:warm_wall_s warm_snap);
  print_newline ();
  print_string
    (Overgen_obs.Metrics.render_report (Telemetry.registry warm_telemetry));
  print_newline ()
