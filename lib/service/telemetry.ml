module Metrics = Overgen_obs.Metrics

type outcome = Hit | Miss | Uncached | Failed

(* Every count lives once, in the registry (one per service instance, so
   Prometheus dumps are per-service and agree with the snapshot exactly);
   the snapshot's percentiles are read back from the latency histogram.
   The per-tenant dimension: the same request/retry/deadline/quota
   counters and the latency histogram, labeled by tenant, alongside —
   never instead of — the unlabeled aggregates (so every pre-tenant
   consumer of the Prometheus dump and the snapshot sees exactly the
   numbers it always did).  Lazily materialized per tenant id, memoized
   here so the record path pays one hashtable probe rather than a
   registry scan. *)
type tenant_metrics = {
  tm_hits : Metrics.counter;
  tm_misses : Metrics.counter;
  tm_uncached : Metrics.counter;
  tm_failed : Metrics.counter;
  tm_retries : Metrics.counter;
  tm_deadlines : Metrics.counter;
  tm_quota : Metrics.counter;
  tm_latency : Metrics.histogram;
}

type t = {
  reg : Metrics.registry;
  hits : Metrics.counter;
  misses : Metrics.counter;
  uncached : Metrics.counter;
  failures : Metrics.counter;
  rejections : Metrics.counter;
  faults : Metrics.counter;
  retries : Metrics.counter;
  deadlines : Metrics.counter;
  quota_shed : Metrics.counter;
  latency : Metrics.histogram;
  tenants : (string, tenant_metrics) Hashtbl.t;
  m : Mutex.t;  (* guards [tenants] *)
}

let requests_metric = "overgen_service_requests_total"

(* Log-spaced from 1 us to ~113 s at ratio 2^(1/4): a percentile read
   back from these buckets is within 19% of the sample at its rank. *)
let latency_buckets =
  Array.init 108 (fun i -> 1e-6 *. (2.0 ** (float_of_int i /. 4.0)))

let latency_histogram ?labels reg =
  Metrics.histogram reg "overgen_service_latency_seconds" ?labels
    ~help:"request service time, excluding queue wait" ~buckets:latency_buckets

let create () =
  let reg = Metrics.create_registry ~label:"compile service" () in
  let req outcome =
    Metrics.counter reg requests_metric
      ~help:"completed compile requests by outcome"
      ~labels:[ ("outcome", outcome) ]
  in
  {
    reg;
    hits = req "hit";
    misses = req "miss";
    uncached = req "uncached";
    failures = req "failed";
    rejections =
      Metrics.counter reg "overgen_service_rejections_total"
        ~help:"admission rejections (queue full)";
    faults =
      Metrics.counter reg "overgen_service_faults_total"
        ~help:"exceptions observed while processing (isolated per request)";
    retries =
      Metrics.counter reg "overgen_service_retries_total"
        ~help:"transient-failure retry attempts";
    deadlines =
      Metrics.counter reg "overgen_service_deadline_exceeded_total"
        ~help:"requests abandoned because their deadline expired";
    quota_shed =
      Metrics.counter reg "overgen_service_quota_shed_total"
        ~help:"over-quota requests shed deterministically at admission";
    latency = latency_histogram reg;
    tenants = Hashtbl.create 8;
    m = Mutex.create ();
  }

let registry t = t.reg

(* The get-or-create for a tenant's labeled series; [Metrics.counter] is
   itself get-or-create keyed on (name, labels), so re-creating after a
   lost race would be harmless — the hashtable only memoizes the lookup. *)
let tenant_metrics t tenant =
  Mutex.lock t.m;
  let tm =
    match Hashtbl.find_opt t.tenants tenant with
    | Some tm -> tm
    | None ->
      let labels = [ ("tenant", tenant) ] in
      let req outcome =
        Metrics.counter t.reg requests_metric
          ~help:"completed compile requests by outcome"
          ~labels:(("outcome", outcome) :: labels)
      in
      let tm =
        {
          tm_hits = req "hit";
          tm_misses = req "miss";
          tm_uncached = req "uncached";
          tm_failed = req "failed";
          tm_retries =
            Metrics.counter t.reg "overgen_service_retries_total"
              ~help:"transient-failure retry attempts" ~labels;
          tm_deadlines =
            Metrics.counter t.reg "overgen_service_deadline_exceeded_total"
              ~help:"requests abandoned because their deadline expired"
              ~labels;
          tm_quota =
            Metrics.counter t.reg "overgen_service_quota_shed_total"
              ~help:"over-quota requests shed deterministically at admission"
              ~labels;
          tm_latency = latency_histogram ~labels t.reg;
        }
      in
      Hashtbl.add t.tenants tenant tm;
      tm
  in
  Mutex.unlock t.m;
  tm

(* [with_tenant] gates every labeled bump: the empty tenant (single-tenant
   deployments, pre-fleet callers) emits no labeled series at all, so the
   Prometheus dump is byte-identical to the pre-tenant one. *)
let with_tenant t tenant f =
  match tenant with
  | None | Some "" -> ()
  | Some id -> f (tenant_metrics t id)

let record ?tenant t outcome ~service_s =
  Metrics.incr
    (match outcome with
    | Hit -> t.hits
    | Miss -> t.misses
    | Uncached -> t.uncached
    | Failed -> t.failures);
  Metrics.observe t.latency service_s;
  with_tenant t tenant (fun tm ->
      Metrics.incr
        (match outcome with
        | Hit -> tm.tm_hits
        | Miss -> tm.tm_misses
        | Uncached -> tm.tm_uncached
        | Failed -> tm.tm_failed);
      Metrics.observe tm.tm_latency service_s)

let record_rejection t = Metrics.incr t.rejections
let record_fault t = Metrics.incr t.faults

let record_retry ?tenant t =
  Metrics.incr t.retries;
  with_tenant t tenant (fun tm -> Metrics.incr tm.tm_retries)

let record_deadline ?tenant t =
  Metrics.incr t.deadlines;
  with_tenant t tenant (fun tm -> Metrics.incr tm.tm_deadlines)

let record_quota ?tenant t =
  Metrics.incr t.quota_shed;
  with_tenant t tenant (fun tm -> Metrics.incr tm.tm_quota)

let tenant_requests t =
  Mutex.lock t.m;
  let per =
    Hashtbl.fold
      (fun id tm acc ->
        let n =
          Metrics.counter_value tm.tm_hits
          + Metrics.counter_value tm.tm_misses
          + Metrics.counter_value tm.tm_uncached
          + Metrics.counter_value tm.tm_failed
        in
        (id, n) :: acc)
      t.tenants []
  in
  Mutex.unlock t.m;
  List.sort compare per

type snapshot = {
  requests : int;
  hits : int;
  misses : int;
  uncached : int;
  failures : int;
  rejections : int;
  faults : int;
  retries : int;
  deadlines : int;
  quota_shed : int;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let snapshot t =
  let h = Metrics.histogram_snapshot t.latency in
  let ms q = 1000.0 *. Metrics.quantile h q in
  let hits = Metrics.counter_value t.hits
  and misses = Metrics.counter_value t.misses
  and uncached = Metrics.counter_value t.uncached
  and failures = Metrics.counter_value t.failures in
  {
    requests = hits + misses + uncached + failures;
    hits;
    misses;
    uncached;
    failures;
    rejections = Metrics.counter_value t.rejections;
    faults = Metrics.counter_value t.faults;
    retries = Metrics.counter_value t.retries;
    deadlines = Metrics.counter_value t.deadlines;
    quota_shed = Metrics.counter_value t.quota_shed;
    mean_ms =
      (if h.h_count = 0 then 0.0
       else 1000.0 *. h.h_sum /. float_of_int h.h_count);
    p50_ms = ms 0.5;
    p90_ms = ms 0.9;
    p99_ms = ms 0.99;
    max_ms = ms 1.0;
  }

let hit_rate s =
  let cached = s.hits + s.misses in
  if cached = 0 then 0.0 else float_of_int s.hits /. float_of_int cached

let report ?(label = "") ~wall_s s =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "-- compile service telemetry%s %s"
    (if label = "" then "" else " [" ^ label ^ "]")
    (String.make (max 2 (40 - String.length label)) '-');
  line "requests    %6d   (hits %d, misses %d, uncached %d, failures %d)"
    s.requests s.hits s.misses s.uncached s.failures;
  if s.hits + s.misses > 0 then line "hit rate    %6.1f %%" (100.0 *. hit_rate s);
  line "rejections  %6d" s.rejections;
  (* the fault-tolerance line only appears once failure paths were hit, so
     fault-free reports render exactly as they always did *)
  if s.faults + s.retries + s.deadlines > 0 then
    line "faults      %6d   (retries %d, deadline-exceeded %d)"
      s.faults s.retries s.deadlines;
  if s.quota_shed > 0 then line "quota shed  %6d" s.quota_shed;
  line "latency      p50 %.3f ms   p90 %.3f ms   p99 %.3f ms   mean %.3f ms   max %.3f ms"
    s.p50_ms s.p90_ms s.p99_ms s.mean_ms s.max_ms;
  if wall_s > 0.0 then
    line "throughput  %8.1f req/s   (%d requests in %.3f s)"
      (float_of_int s.requests /. wall_s)
      s.requests wall_s;
  Buffer.contents b
