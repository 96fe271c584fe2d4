(* The compile-service subsystem: LRU mechanics, the registry, the
   content-addressed schedule cache (including negative caching and the
   cache-correctness invariant that served schedules validate against the
   overlay), backpressure, and deterministic-vs-parallel equivalence. *)

open Overgen_adg
open Overgen_workload
module Lru = Overgen_service.Lru
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Service = Overgen_service.Service
module Admission = Overgen_fleet.Admission
module Tenant = Overgen_fleet.Tenant
module Trace = Overgen_service.Trace
module Telemetry = Overgen_service.Telemetry
module Schedule = Overgen_scheduler.Schedule
module Oracle = Overgen_fpga.Oracle
module Mutate = Overgen_dse.Mutate
module Rng = Overgen_util.Rng
module Fault = Overgen_fault.Fault
module Pool = Overgen_par.Pool

let model () = Models.trained 21

let general =
  lazy
    (match Overgen.general ~model:(model ()) Kernels.all with
    | Ok o -> o
    | Error e -> failwith ("general overlay: " ^ e))

(* ---------------- LRU ---------------- *)

let test_lru_basics () =
  let l = Lru.create ~capacity:3 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  Alcotest.(check int) "full" 3 (Lru.length l);
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  (* "a" just promoted; adding "d" must evict "b", the LRU entry *)
  Lru.add l "d" 4;
  Alcotest.(check bool) "b evicted" false (Lru.mem l "b");
  Alcotest.(check bool) "a survived via promote" true (Lru.mem l "a");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Alcotest.(check (list string))
    "recency order MRU-first" [ "d"; "a"; "c" ]
    (List.map fst (Lru.to_list l))

let test_lru_replace_and_capacity () =
  let l = Lru.create ~capacity:2 in
  Lru.add l 1 "x";
  Lru.add l 1 "y";
  Alcotest.(check int) "replace keeps length 1" 1 (Lru.length l);
  Alcotest.(check (option string)) "replaced value" (Some "y") (Lru.find l 1);
  Alcotest.(check int) "replace is not an eviction" 0 (Lru.evictions l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ---------------- registry ---------------- *)

let test_registry () =
  let r = Registry.create () in
  let o = Lazy.force general in
  (match Registry.register r ~name:"g1" o with
  | Ok e ->
    Alcotest.(check string) "fingerprint matches core" (Overgen.fingerprint o)
      e.Registry.fingerprint
  | Error e -> Alcotest.failf "register: %s" e);
  (match Registry.register r ~name:"g1" o with
  | Ok _ -> Alcotest.fail "duplicate name accepted"
  | Error _ -> ());
  (* a second name for the same structure shares the fingerprint *)
  (match Registry.register r ~name:"g2" o with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "register alias: %s" e);
  Alcotest.(check (list string)) "registration order" [ "g1"; "g2" ]
    (Registry.names r);
  Alcotest.(check int) "aliases share the fingerprint" 2
    (List.length (Registry.find_fingerprint r (Overgen.fingerprint o)));
  Alcotest.(check bool) "find" true (Registry.find r "g2" <> None);
  Alcotest.(check bool) "find missing" true (Registry.find r "nope" = None)

(* ---------------- cache ---------------- *)

let test_cache_counting_and_coalescing () =
  let c = Cache.create ~capacity:8 () in
  let k = Cache.key ~fingerprint:"f" ~variant_hash:"v" in
  let runs = ref 0 in
  let compute () =
    incr runs;
    Ok []
  in
  let _, hit1 = Cache.find_or_compute c k compute in
  let _, hit2 = Cache.find_or_compute c k compute in
  Alcotest.(check bool) "first computes" false hit1;
  Alcotest.(check bool) "second hits" true hit2;
  Alcotest.(check int) "compute ran once" 1 !runs;
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "misses" 1 s.misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Cache.hit_rate s)

(* Regression: transient failures must never be stored.  A key that
   failed once with a transient error recovers on the next request, while
   deterministic failures stay negatively cached. *)
let test_cache_failure_taxonomy () =
  let c = Cache.create ~capacity:8 () in
  let k = Cache.key ~fingerprint:"f" ~variant_hash:"v" in
  let runs = ref 0 in
  let flaky_then_ok () =
    incr runs;
    if !runs = 1 then Error { Cache.reason = "flaky link"; transient = true } else Ok []
  in
  (match Cache.find_or_compute c k flaky_then_ok with
  | Error { transient = true; _ }, false -> ()
  | _ -> Alcotest.fail "first call should report the transient failure");
  Alcotest.(check int) "transient outcome not stored" 0 (Cache.stats c).entries;
  (* the key recovers: the next request recomputes and succeeds *)
  (match Cache.find_or_compute c k flaky_then_ok with
  | Ok [], false -> ()
  | _ -> Alcotest.fail "second call should recompute and succeed");
  Alcotest.(check int) "compute ran twice" 2 !runs;
  let _, hit = Cache.find_or_compute c k flaky_then_ok in
  Alcotest.(check bool) "success now cached" true hit;
  Alcotest.(check int) "no third run" 2 !runs;
  (* deterministic failures are a property of the inputs: cached *)
  let k2 = Cache.key ~fingerprint:"f" ~variant_hash:"w" in
  let det () = Error (Cache.deterministic "kernel cannot map") in
  ignore (Cache.find_or_compute c k2 det);
  (match Cache.find_or_compute c k2 (fun () -> Alcotest.fail "negative hit") with
  | Error { transient = false; _ }, true -> ()
  | _ -> Alcotest.fail "deterministic failure should be a negative hit");
  Alcotest.(check int) "both cacheable outcomes stored" 2 (Cache.stats c).entries

(* Request coalescing when the computing thread raises: the waiters must
   recompute (not deadlock), the key's pending mark must clear, and the
   exception must reach only the thread whose compute raised. *)
let test_coalescing_raising_computer () =
  let c = Cache.create ~capacity:8 () in
  let k = Cache.key ~fingerprint:"f" ~variant_hash:"v" in
  let first = Atomic.make true in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    if Atomic.compare_and_set first true false then
      raise (Fault.Injected { point = "test"; kind = Fault.Transient })
    else Ok []
  in
  let pool = Pool.create (Pool.Domains 4) in
  let results =
    Pool.map_result pool
      (fun _ -> Cache.find_or_compute c k compute)
      (List.init 8 Fun.id)
  in
  Pool.shutdown pool;
  let errs, oks =
    List.fold_left
      (fun (e, o) -> function
        | Error (Fault.Injected _) -> (e + 1, o)
        | Ok (Ok [], _) -> (e, o + 1)
        | Error exn -> Alcotest.failf "unexpected: %s" (Printexc.to_string exn)
        | Ok _ -> Alcotest.fail "unexpected outcome shape")
      (0, 0) results
  in
  Alcotest.(check int) "exactly the raiser fails" 1 errs;
  Alcotest.(check int) "every waiter recovers" 7 oks;
  Alcotest.(check int) "compute ran exactly twice" 2 (Atomic.get runs);
  (* pending cleared: a fresh caller hits the stored success instantly *)
  let _, hit = Cache.find_or_compute c k (fun () -> Alcotest.fail "must hit") in
  Alcotest.(check bool) "pending mark cleared, key cached" true hit

(* The cache-correctness satellite: any schedule list served out of the
   cache must still validate against the sysADG of the overlay whose
   fingerprint keyed it. *)
let test_cached_schedules_validate () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let spec =
    Trace.spec ~seed:5 ~requests:60 ~users:4 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let responses =
    Admission.run (Admission.create svc) (Trace.generate spec)
  in
  Alcotest.(check int) "all answered" 60 (List.length responses);
  let hits = ref 0 in
  List.iter
    (fun (r : Service.response) ->
      if r.cache_hit then incr hits;
      match r.result with
      | Error e -> Alcotest.failf "request %d failed: %s" r.request.id
          (Service.error_to_string e)
      | Ok scheds ->
        Alcotest.(check bool) "schedules nonempty" true (scheds <> []);
        List.iter
          (fun s ->
            match Schedule.validate s o.Overgen.design.sys with
            | Ok () -> ()
            | Error e ->
              Alcotest.failf "request %d (%s): cached schedule invalid: %s"
                r.request.id (Service.payload_name r.request.payload) e)
          scheds)
    responses;
  Alcotest.(check bool) "trace actually exercised the cache" true (!hits > 0)

let test_hit_miss_accounting () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let spec =
    Trace.spec ~seed:11 ~requests:50 ~users:3 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let svc = Service.create ~caching:true registry in
  ignore (Admission.run (Admission.create svc) (Trace.generate spec));
  let s = Option.get (Service.cache svc) in
  let stats = Cache.stats s in
  let distinct = Trace.distinct_keys spec in
  Alcotest.(check int) "one scheduler run per distinct key" distinct stats.misses;
  Alcotest.(check int) "everything else hits" (50 - distinct) stats.hits;
  let snap = Telemetry.snapshot (Service.telemetry svc) in
  Alcotest.(check int) "telemetry agrees" distinct snap.misses;
  Alcotest.(check int) "telemetry requests" 50 snap.requests

(* ---------------- deterministic vs parallel ---------------- *)

let outline (r : Service.response) =
  ( r.request.id,
    match r.result with
    | Ok scheds ->
      Ok (List.length scheds, List.fold_left (fun a s -> a + s.Schedule.ii) 0 scheds)
    | Error e -> Error (Service.error_to_string e) )

let test_workers_match_deterministic () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let spec =
    Trace.spec ~seed:7 ~requests:80 ~users:5 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let trace = Trace.generate spec in
  let replay mode =
    let svc = Service.create ~mode ~caching:true registry in
    let rs = Admission.run (Admission.create svc) trace in
    Service.shutdown svc;
    (List.map outline rs, Cache.stats (Option.get (Service.cache svc)))
  in
  let det, det_stats = replay Service.Deterministic in
  let par, par_stats = replay (Service.Workers 3) in
  Alcotest.(check int) "same response count" (List.length det) (List.length par);
  List.iter2
    (fun (id_d, r_d) (id_p, r_p) ->
      Alcotest.(check int) "ids align" id_d id_p;
      Alcotest.(check bool)
        (Printf.sprintf "request %d identical across modes" id_d)
        true (r_d = r_p))
    det par;
  (* compute-once coalescing makes the totals mode-independent *)
  Alcotest.(check int) "same miss total" det_stats.misses par_stats.misses;
  Alcotest.(check int) "same hit total" det_stats.hits par_stats.hits

(* ---------------- fault tolerance ---------------- *)

(* The tentpole invariant: under injected faults at Workers 4, the
   service still answers exactly one response per request — faulted
   requests as [Error], never by taking down the batch. *)
let test_faults_isolated_per_request () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let spec =
    Trace.spec ~seed:13 ~requests:60 ~users:4 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let trace = Trace.generate spec in
  let svc =
    Service.create ~mode:(Service.Workers 4)
      ~policy:{ Service.default_policy with retries = 1 }
      ~caching:true registry
  in
  let responses =
    Fault.with_faults
      { Fault.default_config with seed = 17; rate = 0.2 }
      (fun () -> Admission.run (Admission.create svc) trace)
  in
  Service.shutdown svc;
  Alcotest.(check int) "one response per request" 60 (List.length responses);
  List.iteri
    (fun i (r : Service.response) ->
      Alcotest.(check int) "ids cover the trace in order" i r.request.id;
      match r.result with
      | Ok scheds -> Alcotest.(check bool) "ok is real" true (scheds <> [])
      | Error (Service.Transient_failure _ | Service.Compile_error _) -> ()
      | Error e ->
        Alcotest.failf "request %d: unexpected error %s" i
          (Service.error_to_string e))
    responses;
  let snap = Telemetry.snapshot (Service.telemetry svc) in
  Alcotest.(check int) "telemetry saw every request" 60 snap.requests;
  Alcotest.(check bool) "faults were actually injected" true (snap.faults > 0);
  Alcotest.(check bool) "injection really happened" true
    (List.exists (fun (_, _, i) -> i > 0) (Fault.stats ()))

(* A transient fault on the first attempt, clean second attempt: the
   retry policy must absorb it into an [Ok] response. *)
let test_retry_recovers () =
  let pt = Fault.Points.service_process in
  let cfg_of seed =
    { Fault.default_config with seed; rate = 0.3; points = [ pt ] }
  in
  (* the plan is pure, so we can search for a seed that injects exactly
     on the first visit of the service fault point *)
  let rec find seed =
    if seed > 10_000 then Alcotest.fail "no suitable seed in range"
    else
      let cfg = cfg_of seed in
      if
        Fault.would_inject cfg pt 0 = Some Fault.Transient
        && Fault.would_inject cfg pt 1 = None
      then cfg
      else find (seed + 1)
  in
  let cfg = find 0 in
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let req =
    { Service.id = 0; user = "u"; tenant = ""; overlay = "general";
      payload = Service.Kernel (Kernels.find "fir"); tuned = false; trace = "";
      deadline_s = None }
  in
  let responses =
    Fault.with_faults cfg (fun () -> Admission.run (Admission.create svc) [ req ])
  in
  (match responses with
  | [ { result = Ok _; _ } ] -> ()
  | [ { result = Error e; _ } ] ->
    Alcotest.failf "retry did not recover: %s" (Service.error_to_string e)
  | _ -> Alcotest.fail "expected exactly one response");
  let snap = Telemetry.snapshot (Service.telemetry svc) in
  Alcotest.(check int) "one fault recorded" 1 snap.faults;
  Alcotest.(check int) "one retry recorded" 1 snap.retries;
  Alcotest.(check int) "no deadline involved" 0 snap.deadlines

(* A deadline so tight the queue wait alone exceeds it: every request is
   shed with [Deadline_exceeded] without running the compiler.  The wait
   is spent held in the admission queue, so this also pins that deadlines
   count from admission, not from dispatch. *)
let test_deadline_shedding () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc =
    Service.create
      ~policy:{ Service.default_policy with deadline_s = Some 0.001 }
      ~caching:true registry
  in
  let adm = Admission.create svc in
  let answered = ref [] in
  Admission.hold adm;
  List.iter
    (fun id ->
      Admission.submit_k adm
        { Service.id; user = "u"; tenant = ""; overlay = "general";
          payload = Service.Kernel (Kernels.find "fir"); tuned = false;
          trace = ""; deadline_s = None }
        ~k:(fun r -> answered := r :: !answered))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "admission should succeed" 0 (List.length !answered);
  (* make the queue wait unambiguously exceed the 1 ms budget *)
  Unix.sleepf 0.02;
  Admission.release adm;
  Admission.drain adm;
  let responses = !answered in
  Alcotest.(check int) "all answered" 5 (List.length responses);
  List.iter
    (fun (r : Service.response) ->
      match r.result with
      | Error Service.Deadline_exceeded -> ()
      | Ok _ -> Alcotest.failf "request %d beat a 1 ms deadline" r.request.id
      | Error e ->
        Alcotest.failf "request %d: %s" r.request.id
          (Service.error_to_string e))
    responses;
  Alcotest.(check int) "sheds counted" 5
    (Telemetry.snapshot (Service.telemetry svc)).deadlines

(* Untenanted traffic is the admission queue's default tenant, and that
   tenant keeps the policy deadline unchanged: held for 1.5x the policy
   budget (still inside the 2x a Standard tenant would get), the request
   must be shed. *)
let test_untenanted_deadline () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc =
    Service.create
      ~policy:{ Service.default_policy with deadline_s = Some 0.05 }
      ~caching:true registry
  in
  let adm = Admission.create svc in
  let answered = ref [] in
  Admission.hold adm;
  Admission.submit_k adm
    { Service.id = 0; user = "u"; tenant = ""; overlay = "general";
      payload = Service.Kernel (Kernels.find "fir"); tuned = false;
      trace = ""; deadline_s = None }
    ~k:(fun r -> answered := r :: !answered);
  Unix.sleepf 0.075;
  Admission.release adm;
  Admission.drain adm;
  match !answered with
  | [ { result = Error Service.Deadline_exceeded; _ } ] -> ()
  | [ { result = Ok _; _ } ] ->
    Alcotest.fail "untenanted request outlived the policy deadline"
  | [ { result = Error e; _ } ] -> Alcotest.fail (Service.error_to_string e)
  | l -> Alcotest.failf "expected one answer, got %d" (List.length l)

(* ---------------- backpressure ---------------- *)

(* The admission queue bounds what two tenants can park in it: past
   [capacity], a request is answered [Queue_full] at once, exactly once,
   and never reaches the service. *)
let test_backpressure () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create registry in
  let adm =
    Admission.create ~capacity:4 ~tenants:[ Tenant.make "a"; Tenant.make "b" ]
      svc
  in
  let req id =
    { Service.id; user = "u"; tenant = (if id mod 2 = 0 then "a" else "b");
      overlay = "general"; payload = Service.Kernel (Kernels.find "fir");
      tuned = false; trace = ""; deadline_s = None }
  in
  let answers = Hashtbl.create 8 in
  let count p = Hashtbl.fold (fun _ r n -> if p r then n + 1 else n) answers 0 in
  let full = function Error Service.Queue_full -> true | _ -> false in
  Admission.hold adm;
  List.iter
    (fun id ->
      Admission.submit_k adm (req id) ~k:(fun (r : Service.response) ->
          Hashtbl.add answers id r.result))
    [ 0; 1; 2; 3; 4; 5 ];
  let rejected = count full in
  Alcotest.(check int) "capacity admitted" 4 (6 - Hashtbl.length answers);
  Alcotest.(check int) "overflow rejected" 2 rejected;
  Alcotest.(check int) "rejections counted" 2
    (Telemetry.snapshot (Service.telemetry svc)).rejections;
  Admission.release adm;
  Admission.drain adm;
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "request %d answered once" id)
        1
        (List.length (Hashtbl.find_all answers id)))
    [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "rejected exactly once each" 2 (count full);
  Alcotest.(check int) "admitted requests complete" 4 (count Result.is_ok)

let test_unknown_overlay () =
  let registry = Registry.create () in
  let svc = Service.create registry in
  let r =
    { Service.id = 0; user = "u"; tenant = ""; overlay = "missing";
      payload = Service.Kernel (Kernels.find "fir"); tuned = false;
      trace = ""; deadline_s = None }
  in
  match Admission.run (Admission.create svc) [ r ] with
  | [ { result = Error (Service.Unknown_overlay "missing"); _ } ] -> ()
  | _ -> Alcotest.fail "expected Unknown_overlay failure"

(* A [Source] payload parses on the worker and lands on the same cache
   key as the equivalent [Kernel] payload: the second request —
   the IR form of the kernel the source lowered to — must be a cache
   hit.  A source the frontend rejects is a deterministic
   [Source_error], never an exception out of the service. *)
let test_source_payload () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let kernel = Kernels.find "fir" in
  let req id payload =
    { Service.id; user = "u"; tenant = ""; overlay = "general"; payload;
      tuned = false; trace = ""; deadline_s = None }
  in
  let responses =
    Admission.run (Admission.create svc)
      [
        req 0 (Service.Source (C_source.emit kernel));
        req 1 (Service.Kernel kernel);
        req 2 (Service.Source "int broken(");
      ]
  in
  match responses with
  | [ r0; r1; r2 ] ->
    let scheds = function
      | { Service.result = Ok s; _ } -> s
      | { Service.result = Error e; _ } ->
        Alcotest.failf "compile failed: %s" (Service.error_to_string e)
    in
    Alcotest.(check bool) "source compile is the miss" false r0.cache_hit;
    Alcotest.(check bool) "IR form hits the source's cache entry" true
      r1.cache_hit;
    Alcotest.(check bool) "identical schedules" true (scheds r0 = scheds r1);
    (match r2.result with
    | Error (Service.Source_error e) ->
      Alcotest.(check bool) "parse error is located" true
        (String.length e > 0 && e.[0] >= '1' && e.[0] <= '9')
    | Error e ->
      Alcotest.failf "wrong error kind: %s" (Service.error_to_string e)
    | Ok _ -> Alcotest.fail "malformed source compiled")
  | _ -> Alcotest.fail "expected exactly three responses"

(* Client-growable state stays bounded: more distinct sources than the
   schedule cache holds keep the compile memo within that capacity, and
   recomputing an evicted entry serves the same answer. *)
let test_memo_bounded () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Lazy.force general) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let capacity = 4 in
  let svc = Service.create ~cache:(Cache.create ~capacity ()) registry in
  let adm = Admission.create svc in
  let round r =
    List.mapi
      (fun i k ->
        let req =
          { Service.id = (100 * r) + i; user = "u"; tenant = ""; overlay = "general";
            payload = Service.Source (C_source.emit k); tuned = false; trace = "";
            deadline_s = None }
        in
        let resp = Admission.run adm [ req ] in
        let held = Service.memo_entries svc in
        if held > capacity then
          Alcotest.failf "memo holds %d entries, capacity %d" held capacity;
        List.map (fun (x : Service.response) -> x.result) resp)
      Kernels.all
  in
  let first = round 0 in
  Alcotest.(check bool) "every kernel answered" true
    (List.for_all (function [ Ok _ ] -> true | _ -> false) first);
  Alcotest.(check bool) "answers unchanged after eviction" true (round 1 = first)

(* ---------------- telemetry ---------------- *)

(* Regression: a snapshot of a telemetry with no completed requests used to
   blow up computing percentiles of an empty latency buffer; every field
   must simply be zero. *)
let test_telemetry_empty_snapshot () =
  let t = Telemetry.create () in
  let s = Telemetry.snapshot t in
  Alcotest.(check int) "requests" 0 s.requests;
  Alcotest.(check (float 0.0)) "p50" 0.0 s.p50_ms;
  Alcotest.(check (float 0.0)) "p90" 0.0 s.p90_ms;
  Alcotest.(check (float 0.0)) "p99" 0.0 s.p99_ms;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.mean_ms;
  Alcotest.(check (float 0.0)) "max" 0.0 s.max_ms;
  Alcotest.(check (float 0.0)) "hit rate" 0.0 (Telemetry.hit_rate s);
  (* the report renders without a wall clock, too *)
  Alcotest.(check bool) "report renders" true
    (String.length (Telemetry.report ~wall_s:0.0 s) > 0)

(* The registry view and the snapshot are two reads of one store: the
   Prometheus dump's per-outcome request counts must equal the snapshot,
   and the snapshot's percentiles, read back from the latency histogram,
   must land in the bucket of the exact percentile ({!Stats.percentiles}
   over the same samples) or the one next to it. *)
let test_telemetry_registry_parity () =
  let t = Telemetry.create () in
  Telemetry.record t Telemetry.Hit ~service_s:0.001;
  Telemetry.record t Telemetry.Hit ~service_s:0.002;
  Telemetry.record t Telemetry.Miss ~service_s:0.040;
  Telemetry.record t Telemetry.Failed ~service_s:0.003;
  Telemetry.record_rejection t;
  let s = Telemetry.snapshot t in
  let dump = Overgen_obs.Metrics.render_prometheus (Telemetry.registry t) in
  let contains needle =
    let n = String.length needle and l = String.length dump in
    let rec scan i = i + n <= l && (String.sub dump i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun (outcome, count) ->
      let line =
        Printf.sprintf "overgen_service_requests_total{outcome=\"%s\"} %d"
          outcome count
      in
      Alcotest.(check bool) ("dump has " ^ line) true (contains line))
    [
      ("hit", s.hits); ("miss", s.misses); ("uncached", s.uncached);
      ("failed", s.failures);
    ];
  Alcotest.(check bool) "rejections in dump" true
    (contains (Printf.sprintf "overgen_service_rejections_total %d" s.rejections));
  Alcotest.(check bool) "latency histogram in dump" true
    (contains "overgen_service_latency_seconds_count 4");
  Alcotest.(check (float 1e-9)) "exact mean" 11.5 s.mean_ms;
  (* log-uniform latencies over five decades, 10 us to 1 s *)
  let rng = Rng.create 17 in
  let samples_s =
    Array.init 2000 (fun _ -> 1e-5 *. (10.0 ** Rng.float rng 5.0))
  in
  let t = Telemetry.create () in
  Array.iter (fun v -> Telemetry.record t Telemetry.Miss ~service_s:v) samples_s;
  let s = Telemetry.snapshot t in
  let bounds =
    Array.map fst
      (Overgen_obs.Metrics.histogram_snapshot
         (Overgen_obs.Metrics.histogram (Telemetry.registry t)
            "overgen_service_latency_seconds"))
        .h_buckets
  in
  let bucket ms =
    let v = ms /. 1000.0 in
    let rec go i = if v <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  let exact =
    Overgen_util.Stats.percentiles
      (Array.map (fun v -> v *. 1000.0) samples_s)
      [ 50.0; 90.0; 99.0; 100.0 ]
  in
  List.iter2
    (fun (name, got) want ->
      let d = abs (bucket got - bucket want) in
      if d > 1 then
        Alcotest.failf "%s: snapshot %.4f ms is %d buckets from exact %.4f ms"
          name got d want)
    [ ("p50", s.p50_ms); ("p90", s.p90_ms); ("p99", s.p99_ms); ("max", s.max_ms) ]
    exact;
  let mean =
    1000.0 *. Array.fold_left ( +. ) 0.0 samples_s /. float_of_int (Array.length samples_s)
  in
  Alcotest.(check (float 1e-6)) "mean stays exact" mean s.mean_ms

(* Telemetry is constant-size in the number of requests it has seen: a
   client controls that number. *)
let test_telemetry_bounded () =
  let t = Telemetry.create () in
  let record n =
    for i = 1 to n do
      Telemetry.record t
        (if i mod 3 = 0 then Telemetry.Miss else Telemetry.Hit)
        ~service_s:(float_of_int (i mod 997) *. 1e-4)
    done;
    Obj.reachable_words (Obj.repr t)
  in
  let after_1k = record 1_000 in
  let after_100k = record 100_000 in
  Alcotest.(check int) "live words after 1k = after 101k" after_1k after_100k;
  Alcotest.(check int) "all recorded" 101_000 (Telemetry.snapshot t).requests

(* ---------------- core compile behind the cache ---------------- *)

(* The one schedule-cache path, as the service drives it: a core compile
   keyed by (overlay fingerprint, variant-set hash) runs once, and the
   schedules served from the cache afterwards still validate against the
   overlay. *)
let test_compile_through_cache () =
  let o = Lazy.force general in
  let c = Cache.create ~capacity:16 () in
  let cc = Overgen_mdfg.Compile.compile ~tuned:false (Kernels.find "gemm") in
  let key =
    Cache.key ~fingerprint:(Overgen.fingerprint o)
      ~variant_hash:(Overgen_mdfg.Compile.hash_compiled cc)
  in
  let runs = ref 0 in
  let compute () =
    incr runs;
    match Overgen.compile_variants o cc with
    | Ok r -> Ok r.Overgen.schedules
    | Error e -> Error (Cache.deterministic e)
  in
  let cold, hit1 = Cache.find_or_compute c key compute in
  let warm, hit2 = Cache.find_or_compute c key compute in
  Alcotest.(check bool) "cold is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "scheduled once" 1 !runs;
  Alcotest.(check bool) "hit serves the computed schedules" true (cold = warm);
  match warm with
  | Ok scheds ->
    List.iter
      (fun s ->
        match Schedule.validate s o.Overgen.design.sys with
        | Ok () -> ()
        | Error e -> Alcotest.failf "cached schedule invalid: %s" e)
      scheds
  | Error f -> Alcotest.failf "compile: %s" f.Cache.reason

(* ---------------- negative caching ---------------- *)

(* A deliberately incapable overlay: the 2x2 seed design with Add-only
   16-bit PEs cannot host most kernels, so scheduling fails — and the
   failure must be cached like any other outcome. *)
let tiny_overlay () =
  let caps = Op.Cap.of_ops [ Op.Add ] [ Dtype.I16 ] in
  let sys = Sys_adg.make (Builder.seed ~caps ~width_bits:16) System.default in
  let synth = Oracle.synth_full sys in
  let design =
    { Overgen_dse.Dse.sys; per_app = []; objective = 0.0; predicted = synth.res }
  in
  { Overgen.design; synth; model = model (); dse = None }

let test_negative_caching () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"tiny" (tiny_overlay ()) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create registry in
  let req id =
    { Service.id; user = "u"; tenant = ""; overlay = "tiny";
      payload = Service.Kernel (Kernels.find "gemm"); tuned = false;
      trace = ""; deadline_s = None }
  in
  let unmappable (r : Service.response) =
    match r.result with
    | Error (Service.Compile_error _) -> ()
    | _ -> Alcotest.fail "gemm should not schedule on the Add-only seed"
  in
  (match Admission.run (Admission.create svc) [ req 0; req 1 ] with
  | [ first; second ] ->
    unmappable first;
    unmappable second;
    Alcotest.(check bool) "first runs the scheduler" false first.cache_hit;
    Alcotest.(check bool) "retry hits the cached failure" true second.cache_hit
  | rs -> Alcotest.failf "%d responses for 2 requests" (List.length rs));
  let stats = Cache.stats (Option.get (Service.cache svc)) in
  Alcotest.(check int) "failure was stored" 1 stats.entries;
  Alcotest.(check int) "one negative hit" 1 stats.hits;
  Alcotest.(check int) "no second scheduler run" 1 stats.misses

(* ---------------- fingerprint collision probe ---------------- *)

(* Walk >=200 mutated designs; structurally distinct serializations must
   never share a fingerprint, and equal serializations must share one. *)
(* Regression: the key join is length-prefixed, so moving bytes across the
   fingerprint/variant-hash boundary must change the key.  The old
   delimiter join ("fp" ^ ":" ^ "vh") collided on exactly these pairs. *)
let test_cache_key_no_boundary_collisions () =
  let k a b = Cache.key ~fingerprint:a ~variant_hash:b in
  Alcotest.(check bool) "boundary shift" true (k "ab" "c" <> k "a" "bc");
  Alcotest.(check bool) "delimiter inside fingerprint" true
    (k "a:b" "c" <> k "a" "b:c");
  Alcotest.(check bool) "empty vs shifted" true (k "" "ab" <> k "ab" "");
  Alcotest.(check bool) "digit bleeding into the length prefix" true
    (k "1" "x" <> k "" "1x" && k "11:x" "y" <> k "1" "1:xy");
  Alcotest.(check string) "length-prefixed layout" "1:f1:v" (k "f" "v")

let test_fingerprint_collisions () =
  let rng = Rng.create 2024 in
  let pool =
    Op.Cap.of_ops [ Op.Add; Op.Mul; Op.Div; Op.Max ] [ Dtype.I16; Dtype.I64; Dtype.F64 ]
  in
  let usage = Mutate.usage_of [] in
  let base = Builder.general_overlay () in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 512 in
  let designs = ref 0 in
  let adg = ref base.Sys_adg.adg in
  for _ = 1 to 250 do
    let adg', _ = Mutate.propose rng ~preserve:false ~caps_pool:pool !adg usage in
    adg := adg';
    let sys = Sys_adg.with_adg base !adg in
    let serial = Serial.to_string sys in
    let fp = Serial.fingerprint sys in
    incr designs;
    (match Hashtbl.find_opt seen serial with
    | Some fp' ->
      Alcotest.(check string) "equal serialization, equal fingerprint" fp' fp
    | None ->
      Hashtbl.iter
        (fun serial' fp' ->
          if fp' = fp && serial' <> serial then
            Alcotest.fail "distinct designs share a fingerprint")
        seen;
      Hashtbl.add seen serial fp)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "probe covered %d designs" !designs)
    true (!designs >= 200);
  Alcotest.(check bool) "mutation walk explored distinct structures" true
    (Hashtbl.length seen >= 100)

(* A tenanted trace spreads its users over the tenants round-robin and
   requests the same kernels as the untenanted trace of the same seed. *)
let test_trace_tenants () =
  let spec tenants =
    Trace.spec ~seed:3 ~requests:40 ~users:4 ?tenants
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let plain = Trace.generate (spec None)
  and tenanted = Trace.generate (spec (Some [| "a"; "b" |])) in
  Alcotest.(check (list string)) "tenants in use" [ "a"; "b" ]
    (List.sort_uniq compare
       (List.map (fun (r : Service.request) -> r.tenant) tenanted));
  Alcotest.(check bool) "same kernels" true
    (List.map (fun (r : Service.request) -> r.payload) plain
     = List.map (fun (r : Service.request) -> r.payload) tenanted)

(* A tuned request compiles the tuned source variant under its own cache
   key: it misses after the untuned one, then hits. *)
let test_tuned_request_own_entry () =
  let o = Lazy.force general in
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" o with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let kernel = List.find (fun (k : Ir.kernel) -> k.og_tuning <> None) Kernels.all in
  let req id tuned =
    { Service.id; user = "u"; tenant = ""; overlay = "general";
      payload = Service.Kernel kernel; tuned; trace = ""; deadline_s = None }
  in
  match
    Admission.run (Admission.create svc) [ req 0 false; req 1 true; req 2 true ]
  with
  | [ r0; r1; r2 ] ->
    List.iter
      (fun (r : Service.response) ->
        match r.result with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "compile failed: %s" (Service.error_to_string e))
      [ r0; r1; r2 ];
    Alcotest.(check (list bool)) "tuned misses once, then hits" [ false; false; true ]
      [ r0.cache_hit; r1.cache_hit; r2.cache_hit ]
  | _ -> Alcotest.fail "expected three responses"

(* Under [Workers] a dispatched group runs as a pool job on a worker
   domain; its request spans still nest under the span open where it was
   dispatched, as they do when a Deterministic service runs it inline. *)
let test_dispatch_spans_parented () =
  let svc = Service.create ~mode:(Service.Workers 1) (Registry.create ()) in
  let done_ = Atomic.make 0 in
  let job id =
    {
      Service.req =
        { Service.id; user = "u"; tenant = ""; overlay = "absent";
          payload = Service.Kernel (Kernels.find "fir"); tuned = false;
          trace = ""; deadline_s = None };
      admitted_at = Unix.gettimeofday ();
      k = (fun _ -> Atomic.incr done_);
    }
  in
  Overgen_obs.Obs.Span.reset ();
  Overgen_obs.Obs.enable ();
  Fun.protect ~finally:Overgen_obs.Obs.disable (fun () ->
      Overgen_obs.Obs.Span.with_span "dispatcher" (fun () ->
          Service.dispatch svc [ job 0; job 1 ]);
      while Atomic.get done_ < 2 do
        Domain.cpu_relax ()
      done);
  Service.shutdown svc;
  let spans = Overgen_obs.Obs.Span.spans () in
  Overgen_obs.Obs.Span.reset ();
  let named n = List.filter (fun (s : Overgen_obs.Obs.Span.span) -> s.name = n) spans in
  let dispatcher = List.hd (named "dispatcher") in
  let requests = named "request" in
  Alcotest.(check int) "two request spans" 2 (List.length requests);
  List.iter
    (fun (s : Overgen_obs.Obs.Span.span) ->
      Alcotest.(check int) "request under the dispatcher" dispatcher.id s.parent;
      (* built only when tracing is on, and then all of them *)
      Alcotest.(check (list string)) "request attributes"
        [ "id"; "user"; "overlay"; "kernel"; "queue_wait_ms"; "outcome" ]
        (List.map fst s.attrs);
      Alcotest.(check (option string)) "kernel attribute" (Some "fir")
        (List.assoc_opt "kernel" s.attrs))
    requests

let tests =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru replace + capacity" `Quick test_lru_replace_and_capacity;
    Alcotest.test_case "registry" `Slow test_registry;
    Alcotest.test_case "cache counting + coalescing" `Quick
      test_cache_counting_and_coalescing;
    Alcotest.test_case "cache failure taxonomy" `Quick
      test_cache_failure_taxonomy;
    Alcotest.test_case "coalescing raising computer" `Quick
      test_coalescing_raising_computer;
    Alcotest.test_case "faults isolated per request" `Slow
      test_faults_isolated_per_request;
    Alcotest.test_case "retry recovers" `Slow test_retry_recovers;
    Alcotest.test_case "deadline shedding" `Slow test_deadline_shedding;
    Alcotest.test_case "untenanted deadline = policy deadline" `Slow
      test_untenanted_deadline;
    Alcotest.test_case "cached schedules validate" `Slow
      test_cached_schedules_validate;
    Alcotest.test_case "hit/miss accounting" `Slow test_hit_miss_accounting;
    Alcotest.test_case "workers match deterministic" `Slow
      test_workers_match_deterministic;
    Alcotest.test_case "backpressure" `Slow test_backpressure;
    Alcotest.test_case "unknown overlay" `Quick test_unknown_overlay;
    Alcotest.test_case "source payload" `Slow test_source_payload;
    Alcotest.test_case "compile memo bounded" `Slow test_memo_bounded;
    Alcotest.test_case "telemetry empty snapshot" `Quick
      test_telemetry_empty_snapshot;
    Alcotest.test_case "telemetry registry parity" `Quick
      test_telemetry_registry_parity;
    Alcotest.test_case "telemetry bounded under soak" `Quick
      test_telemetry_bounded;
    Alcotest.test_case "compile through find_or_compute" `Slow
      test_compile_through_cache;
    Alcotest.test_case "negative caching" `Slow test_negative_caching;
    Alcotest.test_case "cache key boundary collisions" `Quick
      test_cache_key_no_boundary_collisions;
    Alcotest.test_case "fingerprint collision probe" `Quick
      test_fingerprint_collisions;
    Alcotest.test_case "trace tenants" `Quick test_trace_tenants;
    Alcotest.test_case "tuned request own entry" `Quick
      test_tuned_request_own_entry;
    Alcotest.test_case "dispatch spans under the dispatcher" `Quick
      test_dispatch_spans_parented;
  ]
