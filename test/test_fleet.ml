(* The fleet subsystem: deficit-round-robin fairness properties, tenant
   spec parsing, deterministic token-bucket quotas, exactly-one-response
   under fault injection, and the retire → restart → verify round trip
   that guards against orphaned durable cache records. *)

open Overgen_workload
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Service = Overgen_service.Service
module Telemetry = Overgen_service.Telemetry
module Store = Overgen_store.Store
module Fault = Overgen_fault.Fault
module Tenant = Overgen_fleet.Tenant
module Drr = Overgen_fleet.Drr
module Admission = Overgen_fleet.Admission
module Manager = Overgen_fleet.Manager
module Share = Overgen_fleet.Share

let model () = Models.trained 21

let general =
  lazy
    (match Overgen.general ~model:(model ()) Kernels.all with
    | Ok o -> o
    | Error e -> failwith ("general overlay: " ^ e))

(* a cheap second overlay with its own fingerprint, for retire tests *)
let decoy =
  lazy
    (Overgen.generate
       ~config:{ Overgen_dse.Dse.default_config with iterations = 40; seed = 5 }
       ~model:(model ())
       [ Kernels.find "fir" ])

(* ---------------- DRR properties ---------------- *)

let gen_weights =
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let* ws = list_size (return n) (int_range 1 10) in
    return (List.mapi (fun i w -> (Printf.sprintf "t%d" i, w)) ws))

(* The properties run [Drr.dequeue_batch] at [~max:1] (one item per
   dequeue) and at [Admission]'s batch cap (8), grouping a tenant's items
   as [Admission] groups same-overlay requests.  Items encode their
   owner: tenant [i] (named "t<i>") enqueues [i * 1000 + j]. *)
let batch_sizes = [ 1; 8 ]
let tenant_of x = Printf.sprintf "t%d" (x / 1000)
let dequeue q ~max = Drr.dequeue_batch q ~max ~same:(fun a b -> a / 1000 = b / 1000)

(* Work conservation: while anything is queued, dequeue yields, and a
   full drain returns exactly what was enqueued. *)
let prop_work_conserving =
  QCheck.Test.make ~name:"drr: work-conserving, drains exactly" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* ws = gen_weights in
         let* counts =
           list_size (return (List.length ws)) (int_range 0 30)
         in
         return (ws, counts)))
    (fun (weights, counts) ->
      List.for_all
        (fun max ->
          let q = Drr.create () in
          List.iter (fun (id, w) -> Drr.add_tenant q ~id ~weight:w) weights;
          let total = ref 0 in
          List.iteri
            (fun i (id, _) ->
              let n = List.nth counts i in
              total := !total + n;
              for j = 0 to n - 1 do
                Drr.enqueue q ~id (i * 1000 + j)
              done)
            weights;
          let drained = ref 0 in
          let ok = ref true in
          while !ok && Drr.length q > 0 do
            match dequeue q ~max with
            | [] -> ok := false
            | batch -> drained := !drained + List.length batch
          done;
          !ok && !drained = !total && dequeue q ~max = [])
        batch_sizes)

(* Long-run share: with every tenant backlogged, a whole number of ring
   rounds serves each tenant exactly (weight / sum) of the dequeued
   items; a batch never crosses a tenant's round credit, so the item
   count lands on the round boundary exactly. *)
let prop_share_tracks_weight =
  QCheck.Test.make ~name:"drr: backlogged share equals weight" ~count:100
    (QCheck.make gen_weights) (fun weights ->
      List.for_all
        (fun max ->
          let q = Drr.create () in
          let wsum = List.fold_left (fun a (_, w) -> a + w) 0 weights in
          let rounds = 20 in
          List.iteri
            (fun i (id, w) ->
              Drr.add_tenant q ~id ~weight:w;
              for j = 0 to (rounds * w) + 5 do
                Drr.enqueue q ~id (i * 1000 + j)
              done)
            weights;
          let served = Hashtbl.create 8 and n = ref 0 in
          while !n < rounds * wsum do
            match dequeue q ~max with
            | [] -> raise Exit
            | batch ->
              List.iter
                (fun x ->
                  let id = tenant_of x in
                  Hashtbl.replace served id
                    (1 + Option.value ~default:0 (Hashtbl.find_opt served id)))
                batch;
              n := !n + List.length batch
          done;
          !n = rounds * wsum
          && List.for_all
               (fun (id, w) ->
                 Option.value ~default:0 (Hashtbl.find_opt served id) = rounds * w)
               weights)
        batch_sizes)

(* No starvation: a weight-1 tenant under a saturating weight-10 tenant
   appears at least once in every sum-of-weights window of dequeues. *)
let prop_no_starvation =
  QCheck.Test.make ~name:"drr: weight-1 never starved by weight-10" ~count:50
    (QCheck.make (QCheck.Gen.int_range 3 20)) (fun rounds ->
      let q = Drr.create () in
      Drr.add_tenant q ~id:"t0" ~weight:10;
      Drr.add_tenant q ~id:"t1" ~weight:1;
      for j = 0 to (rounds * 12) - 1 do
        Drr.enqueue q ~id:"t0" j;
        Drr.enqueue q ~id:"t1" (1000 + j)
      done;
      let order = ref [] in
      for _ = 1 to rounds * 11 do
        match dequeue q ~max:1 with
        | [ x ] -> order := tenant_of x :: !order
        | _ -> raise Exit
      done;
      let order = Array.of_list (List.rev !order) in
      let ok = ref true in
      for w0 = 0 to Array.length order - 11 do
        let has_light = ref false in
        for i = w0 to w0 + 10 do
          if order.(i) = "t1" then has_light := true
        done;
        if not !has_light then ok := false
      done;
      !ok)

(* ---------------- tenant specs ---------------- *)

let test_tenant_parse () =
  (match Tenant.parse "gold:10,silver:3:interactive,bronze:1:batch:25@0.5" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok [ g; s; b ] ->
    Alcotest.(check int) "gold weight" 10 g.Tenant.weight;
    Alcotest.(check bool) "silver class" true
      (s.Tenant.deadline_class = Tenant.Interactive);
    (match b.Tenant.quota with
    | Some q ->
      Alcotest.(check int) "bronze burst" 25 q.Tenant.burst;
      Alcotest.(check (float 1e-9)) "bronze rate" 0.5 q.Tenant.rate_per_s
    | None -> Alcotest.fail "bronze quota missing")
  | Ok l -> Alcotest.failf "expected 3 tenants, got %d" (List.length l));
  (* round trip *)
  let spec = "gold:10:interactive,silver:3:standard,bronze:1:batch:25@0.5" in
  (match Tenant.parse spec with
  | Ok l ->
    let printed = String.concat "," (List.map Tenant.to_string l) in
    (match Tenant.parse printed with
    | Ok l' -> Alcotest.(check bool) "round-trips" true (l = l')
    | Error e -> Alcotest.failf "reparse: %s" e)
  | Error e -> Alcotest.failf "parse: %s" e);
  (* rejections *)
  List.iter
    (fun bad ->
      match Tenant.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "a:0"; "a:x"; "a:1:warp"; "a:1,a:2"; ":3" ];
  (* empty spec = no tenants *)
  match Tenant.parse "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec should parse to []"

let test_deadline_classes () =
  let t cls = Tenant.make ~deadline_class:cls "x" in
  let d cls policy = Tenant.deadline_s ~policy_deadline_s:policy (t cls) in
  Alcotest.(check (option (float 1e-9))) "interactive = policy"
    (Some 2.0) (d Tenant.Interactive (Some 2.0));
  Alcotest.(check (option (float 1e-9))) "standard = 2x policy"
    (Some 4.0) (d Tenant.Standard (Some 2.0));
  Alcotest.(check (option (float 1e-9))) "batch unbounded"
    None (d Tenant.Batch (Some 2.0));
  Alcotest.(check (option (float 1e-9))) "no policy deadline: ladder inert"
    None (d Tenant.Interactive None)

(* ---------------- quotas ---------------- *)

(* Token bucket against a fake clock: verdicts depend only on arrival
   times, so the shed set is exact and replayable. *)
let test_quota_deterministic () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Lazy.force general) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let now = ref 0.0 in
  let adm =
    Admission.create ~clock:(fun () -> !now)
      ~tenants:
        [ Tenant.make ~quota:{ Tenant.rate_per_s = 1.0; burst = 3 } "metered" ]
      svc
  in
  let shed = ref [] in
  let submit id =
    let req =
      { Service.id; user = "u"; tenant = "metered"; overlay = "general";
        payload = Service.Kernel (Kernels.find "fir"); tuned = false;
        trace = ""; deadline_s = None }
    in
    Admission.submit_k adm req ~k:(fun r ->
        match r.result with
        | Error Service.Quota_exceeded -> shed := id :: !shed
        | _ -> ())
  in
  (* burst of 5 at t=0: exactly the last two shed *)
  List.iter submit [ 0; 1; 2; 3; 4 ];
  (* two seconds later the bucket refilled two tokens: 7 admitted, 8 shed *)
  now := 2.0;
  List.iter submit [ 5; 6; 7; 8 ];
  Admission.drain adm;
  Service.shutdown svc;
  Alcotest.(check (list int)) "exact shed set" [ 3; 4; 7; 8 ]
    (List.sort compare !shed);
  let st = Admission.stats adm in
  Alcotest.(check int) "sheds counted" 4 st.Admission.quota_shed;
  Alcotest.(check int) "admissions counted" 5 st.Admission.admitted;
  Alcotest.(check int) "quota telemetry" 4
    (Telemetry.snapshot (Service.telemetry svc)).Telemetry.quota_shed

(* Same-overlay batching on a held backlog with a known group structure.
   Tenant "t" (weight 20) holds the DRR round long enough to drain its
   17 requests in one round, grouped by consecutive overlay and capped at
   8: a×3 b a×8 a×2 c×2 b.  Metered tenant "q" gets two of its five
   requests past its bucket, each a group of one.  The overlays are not
   registered, so every request fails fast at the service; batching is
   decided before that. *)
let test_admission_batching () =
  let svc = Service.create (Registry.create ()) in
  let adm =
    Admission.create ~clock:(fun () -> 0.0)
      ~tenants:
        [
          Tenant.make ~weight:20 "t";
          Tenant.make ~quota:{ Tenant.rate_per_s = 0.0; burst = 2 } "q";
        ]
      svc
  in
  let answered = ref 0 in
  let submit tenant i overlay =
    Admission.submit_k adm
      { Service.id = i; user = "u"; tenant; overlay;
        payload = Service.Kernel (Kernels.find "fir"); tuned = false;
        trace = ""; deadline_s = None }
      ~k:(fun _ -> incr answered)
  in
  let runs = [ ("a", 3); ("b", 1); ("a", 10); ("c", 2); ("b", 1) ] in
  Admission.hold adm;
  List.iteri (fun i o -> submit "t" i o)
    (List.concat_map (fun (o, n) -> List.init n (fun _ -> o)) runs);
  List.iter (fun i -> submit "q" (100 + i) "a") (List.init 5 Fun.id);
  Admission.release adm;
  Admission.drain adm;
  Service.shutdown svc;
  let st = Admission.stats adm in
  Alcotest.(check int) "every request answered" 22 !answered;
  Alcotest.(check int) "multi-request groups" 4 st.Admission.batches;
  Alcotest.(check int) "requests in those groups" 15 st.Admission.batched_requests;
  Alcotest.(check int) "largest group" 8 st.Admission.max_batch;
  Alcotest.(check int) "quota sheds" 3 st.Admission.quota_shed;
  Alcotest.(check int) "admitted + shed = submitted" 22
    (st.Admission.admitted + st.Admission.quota_shed);
  Alcotest.(check int) "nothing left" 0 (st.Admission.queued + st.Admission.inflight)

(* ---------------- weighted-fair admission ---------------- *)

(* Pure DRR order end to end: park a 3-tenant backlog, release it, and
   check achieved shares against weights on the completion order. *)
let test_admission_shares () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Lazy.force general) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let svc = Service.create ~caching:true registry in
  let tenants =
    [ Tenant.make ~weight:6 "a"; Tenant.make ~weight:3 "b"; Tenant.make "c" ]
  in
  let adm = Admission.create ~tenants svc in
  let order = ref [] in
  let k (r : Service.response) =
    order := r.request.Service.tenant :: !order
  in
  Admission.hold adm;
  List.iter
    (fun (t : Tenant.t) ->
      List.iteri
        (fun i (k' : Overgen_workload.Ir.kernel) ->
          ignore k';
          Admission.submit_k adm
            { Service.id = (Hashtbl.hash t.Tenant.id * 100) + i; user = "u";
              tenant = t.Tenant.id; overlay = "general";
              payload = Service.Kernel (List.nth Kernels.all (i mod 4));
              tuned = false; trace = ""; deadline_s = None }
            ~k)
        (List.init 60 (fun _ -> List.hd Kernels.all)))
    tenants;
  Admission.release adm;
  Admission.drain adm;
  Service.shutdown svc;
  let weights = List.map (fun (t : Tenant.t) -> (t.Tenant.id, t.Tenant.weight)) tenants in
  let reports = Share.measure ~weights (List.rev !order) in
  Alcotest.(check int) "3 tenants measured" 3 (List.length reports);
  let err = Share.max_rel_err reports in
  if err > 0.10 then
    Alcotest.failf "share error %.1f%% exceeds 10%%" (100.0 *. err)

(* Quota sheds + WFQ reordering keep the one-response-per-request
   contract under seeded faults, and the same seed sheds the same ids. *)
let test_exactly_once_under_faults () =
  let run_once () =
    let registry = Registry.create () in
    (match Registry.register registry ~name:"general" (Lazy.force general) with
    | Ok _ -> ()
    | Error e -> failwith e);
    let svc =
      Service.create ~caching:true
        ~policy:{ Service.default_policy with retries = 1 }
        registry
    in
    let tenants =
      [
        Tenant.make ~weight:5 "a";
        Tenant.make ~weight:2 "b";
        Tenant.make ~quota:{ Tenant.rate_per_s = 0.0; burst = 10 } "c";
      ]
    in
    let adm = Admission.create ~clock:(fun () -> 0.0) ~tenants svc in
    let answered = Hashtbl.create 64 in
    let shed = ref [] in
    let m = Mutex.create () in
    let reqs =
      List.concat_map
        (fun (idx, tenant) ->
          List.init 40 (fun i ->
              { Service.id = (idx * 1000) + i; user = tenant; tenant;
                overlay = "general";
                payload = Service.Kernel (List.nth Kernels.all ((idx + i) mod 6));
                tuned = false; trace = ""; deadline_s = None }))
        [ (0, "a"); (1, "b"); (2, "c") ]
    in
    let cfg =
      {
        Fault.seed = 33;
        rate = 0.2;
        transient_fraction = 0.5;
        points = [ Fault.Points.cache_store; Fault.Points.service_process ];
      }
    in
    Fault.with_faults cfg (fun () ->
        Admission.hold adm;
        List.iter
          (fun r ->
            Admission.submit_k adm r ~k:(fun (resp : Service.response) ->
                Mutex.lock m;
                Hashtbl.replace answered resp.request.Service.id
                  (1 + Option.value ~default:0
                         (Hashtbl.find_opt answered resp.request.Service.id));
                (match resp.result with
                | Error Service.Quota_exceeded ->
                  shed := resp.request.Service.id :: !shed
                | _ -> ());
                Mutex.unlock m))
          reqs;
        Admission.release adm;
        Admission.drain adm);
    Service.shutdown svc;
    List.iter
      (fun (r : Service.request) ->
        match Hashtbl.find_opt answered r.Service.id with
        | Some 1 -> ()
        | Some n -> Alcotest.failf "request %d answered %d times" r.Service.id n
        | None -> Alcotest.failf "request %d never answered" r.Service.id)
      reqs;
    List.sort compare !shed
  in
  let first = run_once () in
  let second = run_once () in
  Alcotest.(check int) "30 deterministic sheds" 30 (List.length first);
  Alcotest.(check (list int)) "same seed, same shed set" first second

(* ---------------- retire: no orphaned durable records ---------------- *)

(* store gc of a retired overlay must not strand schedule-cache records
   keyed by its fingerprint: retire, then restart from the same store and
   verify — the registry stays retired, the file verifies clean, and no
   cache record under the retired fingerprint survives. *)
let test_retire_restart_verify () =
  let path = Filename.temp_file "fleet_retire" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let store = Result.get_ok (Store.open_ ~path ()) in
  let registry = Registry.create ~store () in
  (match Registry.register registry ~name:"general" (Lazy.force general) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let fp =
    match Registry.register registry ~name:"decoy" (Lazy.force decoy) with
    | Ok e -> e.Registry.fingerprint
    | Error e -> failwith e
  in
  let cache = Cache.create ~store () in
  let svc = Service.create ~caching:true ~cache registry in
  let req id overlay kernel =
    { Service.id; user = "u"; tenant = ""; overlay;
      payload = Service.Kernel (Kernels.find kernel); tuned = false;
      trace = ""; deadline_s = None }
  in
  let responses =
    Admission.run (Admission.create svc)
      [ req 0 "decoy" "fir"; req 1 "general" "fir"; req 2 "general" "mm" ]
  in
  Alcotest.(check int) "traffic served" 3 (List.length responses);
  List.iter
    (fun (r : Service.response) ->
      match r.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "compile failed: %s" (Service.error_to_string e))
    responses;
  let prefix = Printf.sprintf "%d:%s" (String.length fp) fp in
  let has_decoy_record s =
    List.exists
      (fun (k, _) ->
        String.length k >= String.length prefix
        && String.sub k 0 (String.length prefix) = prefix)
      (Store.bindings s ~ns:"schedule-cache")
  in
  Alcotest.(check bool) "decoy schedule persisted" true (has_decoy_record store);
  let manager = Manager.create ~cache ~store ~model:(model ()) registry in
  (match Manager.retire manager "decoy" with
  | Ok purged -> Alcotest.(check bool) "purged at least one" true (purged >= 1)
  | Error e -> Alcotest.failf "retire: %s" e);
  Service.shutdown svc;
  Store.close store;
  (* restart: the file verifies, the registry stays retired, and no
     cache record under the retired fingerprint survives the gc *)
  (match Store.verify ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "store verify after retire: %s" e.Store.reason);
  let store2 = Result.get_ok (Store.open_ ~path ()) in
  let registry2 = Registry.create ~store:store2 () in
  Alcotest.(check bool) "decoy stays retired" true
    (Registry.find registry2 "decoy" = None);
  Alcotest.(check bool) "general survives" true
    (Registry.find registry2 "general" <> None);
  Alcotest.(check bool) "no orphaned cache records" false
    (has_decoy_record store2);
  let cache2 = Cache.create ~store:store2 () in
  Alcotest.(check bool) "warm start still works" true
    (Cache.warm_loaded cache2 >= 1);
  Store.close store2

(* ---------------- per-tenant telemetry ---------------- *)

(* Tenant-labeled series coexist with the unlabeled aggregates in one
   Prometheus dump: HELP/TYPE stated once per family, every series
   carrying its tenant label, and untenanted traffic producing no tenant
   series at all. *)
let test_tenant_prometheus () =
  let contains ~needle hay =
    let n = String.length needle and l = String.length hay in
    let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  let count_occurrences ~needle hay =
    let n = String.length needle in
    let rec scan i acc =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then scan (i + 1) (acc + 1)
      else scan (i + 1) acc
    in
    scan 0 0
  in
  let t = Telemetry.create () in
  Telemetry.record ~tenant:"acme" t Telemetry.Uncached ~service_s:0.001;
  Telemetry.record ~tenant:"acme" t Telemetry.Hit ~service_s:0.0001;
  Telemetry.record ~tenant:"zeta" t Telemetry.Miss ~service_s:0.002;
  Telemetry.record_quota ~tenant:"zeta" t;
  Telemetry.record t Telemetry.Uncached ~service_s:0.001;
  let dump = Overgen_obs.Metrics.render_prometheus (Telemetry.registry t) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle dump))
    [
      "overgen_service_requests_total{outcome=\"hit\",tenant=\"acme\"} 1";
      "overgen_service_requests_total{outcome=\"miss\",tenant=\"zeta\"} 1";
      "overgen_service_quota_shed_total{tenant=\"zeta\"} 1";
      "overgen_service_latency_seconds_bucket{tenant=\"acme\"";
    ];
  (* one HELP line per family even with labeled + unlabeled series *)
  Alcotest.(check int) "HELP stated once for requests family" 1
    (count_occurrences ~needle:"# HELP overgen_service_requests_total" dump);
  (* the unlabeled aggregates still count everything *)
  Alcotest.(check int) "aggregate counts all tenants" 4
    (Telemetry.snapshot t).Telemetry.requests;
  (* untenanted traffic creates no tenant series *)
  let t2 = Telemetry.create () in
  Telemetry.record t2 Telemetry.Uncached ~service_s:0.001;
  let dump2 = Overgen_obs.Metrics.render_prometheus (Telemetry.registry t2) in
  Alcotest.(check bool) "no tenant label without tenants" false
    (contains ~needle:"tenant=" dump2)

(* ---------------- manager: scan + promote ---------------- *)

let test_scan_and_promote () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Lazy.force general) with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match Registry.register registry ~name:"cold" (Lazy.force decoy) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let manager =
    Manager.create
      ~config:
        {
          Manager.default_config with
          protected = [ "general" ];
          promote_min_requests = 5;
          dse_iterations = 40;
          dse_top_kernels = 2;
        }
      ~model:(model ()) registry
  in
  (* protected names refuse to retire *)
  (match Manager.retire manager "general" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "protected overlay retired");
  (match Manager.retire manager "cold" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retire cold: %s" e);
  Alcotest.(check bool) "unregistered" true
    (Registry.find registry "cold" = None);
  (* promote after enough observed misses *)
  let mk id kernel hit =
    {
      Service.request =
        { Service.id = id; user = "u"; tenant = "t"; overlay = "general";
          payload = Service.Kernel (Kernels.find kernel); tuned = false;
          trace = ""; deadline_s = None };
      result = Ok [];
      cache_hit = hit;
      service_s = 0.001;
    }
  in
  List.iteri
    (fun i k -> Manager.observe manager (mk i k (i mod 2 = 0)))
    [ "fir"; "fir"; "mm"; "mm"; "fir"; "fft" ];
  (match Manager.maybe_promote manager with
  | Some entry ->
    Alcotest.(check bool) "fleet name" true
      (String.length entry.Registry.name >= 6
      && String.sub entry.Registry.name 0 6 = "fleet-");
    Alcotest.(check bool) "registered" true
      (Registry.find registry entry.Registry.name <> None)
  | None -> Alcotest.fail "promote did not fire");
  Alcotest.(check int) "promote counted" 1 (Manager.promotes manager);
  (* the observation window reset: no immediate second promote *)
  Alcotest.(check bool) "window reset" true
    (Manager.maybe_promote manager = None)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_work_conserving;
    QCheck_alcotest.to_alcotest prop_share_tracks_weight;
    QCheck_alcotest.to_alcotest prop_no_starvation;
    Alcotest.test_case "tenant specs parse + round-trip" `Quick
      test_tenant_parse;
    Alcotest.test_case "deadline class ladder" `Quick test_deadline_classes;
    Alcotest.test_case "quota sheds are deterministic" `Slow
      test_quota_deterministic;
    Alcotest.test_case "admission batching counts are exact" `Quick
      test_admission_batching;
    Alcotest.test_case "weighted shares on the completion order" `Slow
      test_admission_shares;
    Alcotest.test_case "exactly one response under faults" `Slow
      test_exactly_once_under_faults;
    Alcotest.test_case "tenant-labeled prometheus dump" `Quick
      test_tenant_prometheus;
    Alcotest.test_case "retire, restart, verify: no orphans" `Slow
      test_retire_restart_verify;
    Alcotest.test_case "manager scan + promote" `Slow test_scan_and_promote;
  ]
