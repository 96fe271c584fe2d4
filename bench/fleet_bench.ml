(* The fleet scenario: multi-tenant QoS and fleet management at traffic.

   Three tenants with skewed weights (gold 10, silver 3, bronze 1) share
   one compile service through the weighted-fair admission layer.  The
   whole load is parked behind [Admission.hold] and released at once, so
   the completion order is the pure deficit-round-robin order and the
   achieved-share measurement ({!Overgen_fleet.Share}) is deterministic:
   each tenant's share of the backlogged prefix must sit within 10%
   relative error of its weight.  Bronze carries a burst-only quota, so a
   fixed count of its requests is shed [Quota_exceeded] at the gate —
   deterministically, and with every request still answered exactly once.

   The same replay feeds the fleet manager: a decoy overlay is retired
   (purging its schedule-cache records) and the observed misses trigger
   one background DSE promote that lands a [fleet-0] overlay in the
   registry, both asserted through the flight recorder's pinned events. *)

open Overgen_workload
module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Telemetry = Overgen_service.Telemetry
module Tenant = Overgen_fleet.Tenant
module Admission = Overgen_fleet.Admission
module Manager = Overgen_fleet.Manager
module Share = Overgen_fleet.Share
module Log = Overgen_obs.Obs.Log

let per_tenant = 150
let bronze_burst = 25
let share_err_cap = 0.10

let die fmt = Printf.ksprintf failwith fmt

let tenants =
  [
    Tenant.make ~weight:10 ~deadline_class:Tenant.Interactive "gold";
    Tenant.make ~weight:3 "silver";
    Tenant.make ~weight:1 ~deadline_class:Tenant.Batch
      ~quota:{ Tenant.rate_per_s = 0.0; burst = bronze_burst }
      "bronze";
  ]

let weights = List.map (fun (t : Tenant.t) -> (t.id, t.weight)) tenants

(* Per-tenant request streams over overlapping 4-kernel working sets:
   same-overlay runs make batching kick in, repeats make the cache
   earn hits, and the overlap keeps the miss profile interesting for
   the promote trigger. *)
let requests_for idx tenant =
  let all = Array.of_list Kernels.all in
  List.init per_tenant (fun i ->
      let kernel = all.((idx * 2 + (i mod 4)) mod Array.length all) in
      {
        Service.id = (idx * 1000) + i;
        user = tenant;
        tenant;
        overlay = "general";
        payload = Service.Kernel kernel;
        tuned = false;
        trace = "";
        deadline_s = None;
      })

let run () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Exp_common.general ()) with
  | Ok _ -> ()
  | Error e -> die "register general: %s" e);
  let decoy =
    Exp_common.custom_overlay ~key:"fleet-decoy" ~seed:5 ~iterations:40
      [ Kernels.find "fir" ]
  in
  (match Registry.register registry ~name:"decoy" decoy with
  | Ok _ -> ()
  | Error e -> die "register decoy: %s" e);
  let cache = Cache.create ~capacity:1024 () in
  let svc = Service.create ~caching:true ~cache registry in
  (* burst-only quota + a frozen clock: the shed set is a pure function
     of submission order *)
  let adm = Admission.create ~clock:(fun () -> 0.0) ~tenants svc in
  let manager =
    Manager.create
      ~config:
        {
          Manager.default_config with
          protected = [ "general" ];
          promote_min_requests = 100;
          dse_iterations = 60;
          dse_top_kernels = 2;
        }
      ~cache
      ~model:(Exp_common.model ()) registry
  in
  Manager.attach manager adm;
  let order = ref [] and sheds = ref 0 and responses = ref 0 in
  let om = Mutex.create () in
  let k (r : Service.response) =
    Mutex.lock om;
    incr responses;
    (match r.result with
    | Error Service.Quota_exceeded -> incr sheds
    | _ -> order := r.request.Service.tenant :: !order);
    Mutex.unlock om
  in
  let trace =
    List.concat (List.mapi (fun i (t : Tenant.t) -> requests_for i t.id) tenants)
  in
  let total = List.length trace in
  Printf.printf
    "fleet: %d requests, 3 tenants (gold:10 silver:3 bronze:1, bronze burst %d)\n\n"
    total bronze_burst;
  (* park everything, then release: completion order = pure DRR order *)
  Admission.hold adm;
  List.iter (fun r -> Admission.submit_k adm r ~k) trace;
  let t0 = Unix.gettimeofday () in
  Admission.release adm;
  Admission.drain adm;
  let wall_s = Unix.gettimeofday () -. t0 in
  Service.shutdown svc;
  let stats = Admission.stats adm in
  let expected_sheds = per_tenant - bronze_burst in
  if !responses <> total then
    die "lost responses: %d answered of %d submitted" !responses total;
  if !sheds <> expected_sheds then
    die "expected exactly %d deterministic quota sheds, saw %d" expected_sheds
      !sheds;
  let reports = Share.measure ~weights (List.rev !order) in
  List.iter print_endline (Share.report_lines reports);
  let share_err = Share.max_rel_err reports in
  if share_err > share_err_cap then
    die "achieved share off by %.1f%% (cap %.0f%%)" (100.0 *. share_err)
      (100.0 *. share_err_cap);
  let avg_batch =
    if stats.batches = 0 then 1.0
    else float_of_int stats.batched_requests /. float_of_int stats.batches
  in
  Printf.printf
    "\nadmission: %d admitted, %d shed at the quota gate\n\
     batching:  %d groups covering %d requests (avg %.1f, max %d)\n"
    stats.admitted stats.quota_shed stats.batches stats.batched_requests
    avg_batch stats.max_batch;
  Printf.printf "throughput: %.1f req/s over the weighted-fair replay\n\n"
    (float_of_int total /. wall_s);
  (* per-tenant telemetry made it into the labeled series *)
  let tenant_reqs = Telemetry.tenant_requests (Service.telemetry svc) in
  List.iter
    (fun (tenant, n) -> Printf.printf "telemetry: tenant %-8s %4d requests\n" tenant n)
    tenant_reqs;
  (* fleet management: retire the cold decoy, then promote from the
     observed miss profile *)
  let purged =
    match Manager.retire manager "decoy" with
    | Ok n -> n
    | Error e -> die "retire decoy: %s" e
  in
  Printf.printf "\nretire: decoy retired, %d cached schedule(s) purged\n" purged;
  let promoted =
    match Manager.maybe_promote manager with
    | Some entry ->
      Printf.printf "promote: %s registered [%s]\n" entry.Registry.name
        (String.sub entry.Registry.fingerprint 0 8);
      entry.Registry.name
    | None -> die "promote trigger did not fire after %d observations" total
  in
  let pinned name =
    List.exists (fun (e : Log.event) -> e.name = name) (Log.recent Log.default)
  in
  if not (pinned "retire") then die "no retire event in the flight recorder";
  if not (pinned "promote") then die "no promote event in the flight recorder";
  if Registry.find registry promoted = None then
    die "promoted overlay %s missing from the registry" promoted;
  print_newline ()
