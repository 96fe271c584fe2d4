module Service = Overgen_service.Service
module Telemetry = Overgen_service.Telemetry
module Metrics = Overgen_obs.Metrics
module Log = Overgen_obs.Obs.Log

(* Token bucket, refilled lazily against the injected clock so quota
   verdicts are a pure function of (arrival times, quota) — the tests and
   the fleet bench drive a fake clock and get byte-stable shed sets. *)
type bucket = { mutable tokens : float; mutable last : float }

type tstate = {
  tenant : Tenant.t;
  bucket : bucket option;
  deadline : float option;  (* what the tenant's class maps the policy to *)
}

(* Same-overlay dispatch groups are capped here, and by the tenant's
   round credit in [Drr.dequeue_batch]. *)
let batch_max = 8

type t = {
  svc : Service.t;
  clock : unit -> float;
  capacity : int;
  window : int;
  tstates : (string, tstate) Hashtbl.t;
  q : Service.job Drr.t;
  m : Mutex.t;
  changed : Condition.t;
      (* broadcast after every pump: the queue may have room, or be idle *)
  mutable inflight : int;
  mutable pumping : bool;
  mutable held : bool;
  c_admitted : Metrics.counter;
  h_group_size : Metrics.histogram;
      (* requests per dispatch group; integer buckets 1..batch_max, so
         the batching stats derive from it exactly *)
  observers : (Service.response -> unit) list Atomic.t;
}

type stats = {
  admitted : int;
  quota_shed : int;
  batches : int;
  batched_requests : int;
  max_batch : int;
  queued : int;
  inflight : int;
}

let register_locked t (tenant : Tenant.t) =
  let ts =
    {
      tenant;
      bucket =
        Option.map
          (fun (q : Tenant.quota) ->
            { tokens = float_of_int q.burst; last = t.clock () })
          tenant.quota;
      deadline =
        Tenant.deadline_s
          ~policy_deadline_s:(Service.policy t.svc).Service.deadline_s tenant;
    }
  in
  Hashtbl.add t.tstates tenant.id ts;
  Drr.add_tenant t.q ~id:tenant.id ~weight:tenant.weight;
  ts

(* Unknown tenants get a default SLA — weight 1, no quota, Standard
   class — rather than an error.  The empty id on untenanted requests is
   Interactive, which maps to exactly the policy deadline: a
   single-tenant deployment is one weight-1 tenant, plain FIFO, under the
   service policy unchanged. *)
let tstate_locked t id =
  match Hashtbl.find_opt t.tstates id with
  | Some ts -> ts
  | None ->
    let deadline_class =
      if id = "" then Tenant.Interactive else Tenant.Standard
    in
    register_locked t { Tenant.id; weight = 1; quota = None; deadline_class }

let create ?(capacity = 1024) ?clock ?(tenants = []) svc =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  let reg = Telemetry.registry (Service.telemetry svc) in
  let t =
    {
      svc;
      clock = Option.value clock ~default:Unix.gettimeofday;
      capacity;
      (* Deterministic mode processes inline, so a window of 1 keeps the
         dispatch order exactly the DRR order; a domain pool wants enough
         outstanding work to keep every domain busy while the next batch
         queues. *)
      window =
        (match Service.mode svc with
        | Service.Deterministic -> 1
        | Service.Workers n -> 2 * n);
      tstates = Hashtbl.create 8;
      q = Drr.create ();
      m = Mutex.create ();
      changed = Condition.create ();
      inflight = 0;
      pumping = false;
      held = false;
      c_admitted =
        Metrics.counter reg "overgen_admission_admitted_total"
          ~help:"requests past the capacity and quota gates";
      h_group_size =
        Metrics.histogram reg "overgen_admission_group_size"
          ~help:"requests per dispatch group"
          ~buckets:(Array.init batch_max (fun i -> float_of_int (i + 1)));
      observers = Atomic.make [];
    }
  in
  List.iter
    (fun (tn : Tenant.t) ->
      if not (Hashtbl.mem t.tstates tn.id) then ignore (register_locked t tn))
    tenants;
  t

let on_complete t f =
  Mutex.lock t.m;
  Atomic.set t.observers (Atomic.get t.observers @ [ f ]);
  Mutex.unlock t.m

let synthesize req err =
  {
    Service.request = req;
    result = Error err;
    cache_hit = false;
    service_s = 0.0;
  }

(* The pump: while the in-flight window has room, dequeue the next DRR
   batch and hand it to the service.  [pumping] makes re-entry a no-op —
   in Deterministic mode the service runs [k] inline inside
   [Service.dispatch], so the completion's own pump call lands while the
   outer loop still owns the pump; it bows out and the outer loop
   continues.  The lock is never held across a dispatch. *)
let rec pump ?(finished = 0) t =
  Mutex.lock t.m;
  t.inflight <- t.inflight - finished;
  if t.pumping || t.held then Mutex.unlock t.m
  else begin
    t.pumping <- true;
    let continue = ref true in
    while !continue do
      if t.inflight >= t.window then continue := false
      else begin
        match
          Drr.dequeue_batch t.q ~max:batch_max ~same:(fun a b ->
              a.Service.req.overlay = b.Service.req.overlay)
        with
        | [] -> continue := false
        | batch ->
          let n = List.length batch in
          t.inflight <- t.inflight + n;
          Metrics.observe t.h_group_size (float_of_int n);
          Mutex.unlock t.m;
          Service.dispatch t.svc batch;
          Mutex.lock t.m
      end
    done;
    t.pumping <- false;
    Condition.broadcast t.changed;
    Mutex.unlock t.m
  end

(* Each queued request's completion: the caller's [k], the observers,
   then the freed window slot goes to the next batch. *)
and complete t k resp =
  k resp;
  List.iter (fun f -> f resp) (Atomic.get t.observers);
  pump ~finished:1 t

let take_token t ts =
  match (ts.bucket, ts.tenant.Tenant.quota) with
  | Some b, Some q ->
    let now = t.clock () in
    b.tokens <-
      Float.min (float_of_int q.Tenant.burst)
        (b.tokens +. ((now -. b.last) *. q.Tenant.rate_per_s));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false
  | _ -> true

let submit_k t (req : Service.request) ~k =
  let admitted_at = Unix.gettimeofday () in
  let shed event err =
    Log.record ~level:Log.Warn ~trace:req.trace Log.default event
      ~attrs:[ ("id", string_of_int req.id); ("tenant", req.tenant) ];
    k (synthesize req err)
  in
  Mutex.lock t.m;
  if Drr.length t.q >= t.capacity then begin
    Mutex.unlock t.m;
    Telemetry.record_rejection (Service.telemetry t.svc);
    shed "admission_rejected" Service.Queue_full
  end
  else
    let ts = tstate_locked t req.tenant in
    if not (take_token t ts) then begin
      Mutex.unlock t.m;
      Telemetry.record_quota ~tenant:req.tenant (Service.telemetry t.svc);
      (* deterministic shed: answered immediately, never queued, and
         Quota_exceeded is non-retryable end to end *)
      shed "quota_shed" Service.Quota_exceeded
    end
    else begin
      Metrics.incr t.c_admitted;
      let req =
        match req.deadline_s with
        | Some _ -> req
        | None -> { req with Service.deadline_s = ts.deadline }
      in
      Drr.enqueue t.q ~id:req.tenant
        { Service.req; admitted_at; k = complete t k };
      Mutex.unlock t.m;
      Log.record ~level:Log.Debug ~trace:req.trace Log.default "wfq_admit"
        ~attrs:[ ("id", string_of_int req.id); ("tenant", req.tenant) ];
      pump t
    end

let hold t =
  Mutex.lock t.m;
  t.held <- true;
  Mutex.unlock t.m

let release t =
  Mutex.lock t.m;
  t.held <- false;
  Mutex.unlock t.m;
  pump t

let wait_until t ready =
  Mutex.lock t.m;
  while not (ready ()) do
    Condition.wait t.changed t.m
  done;
  Mutex.unlock t.m

let drain t =
  pump t;
  wait_until t (fun () -> t.inflight = 0 && Drr.length t.q = 0)

let run t reqs =
  let out = ref [] in
  let om = Mutex.create () in
  let k resp =
    Mutex.lock om;
    out := resp :: !out;
    Mutex.unlock om
  in
  List.iter
    (fun r ->
      wait_until t (fun () -> Drr.length t.q < t.capacity);
      submit_k t r ~k)
    reqs;
  drain t;
  List.sort
    (fun (a : Service.response) b ->
      compare a.request.Service.id b.request.Service.id)
    !out

(* The bucket bounded by [n] holds exactly the groups of [n] requests;
   groups of one are not batches. *)
let stats t =
  let g = Metrics.histogram_snapshot t.h_group_size in
  let singles = snd g.h_buckets.(0) in
  let max_batch = ref 0 in
  Array.iteri
    (fun i (le, cum) ->
      if i > 0 && cum > snd g.h_buckets.(i - 1) then
        max_batch := int_of_float le)
    g.h_buckets;
  Mutex.lock t.m;
  let queued = Drr.length t.q and inflight = t.inflight in
  Mutex.unlock t.m;
  {
    admitted = Metrics.counter_value t.c_admitted;
    quota_shed = (Telemetry.snapshot (Service.telemetry t.svc)).quota_shed;
    batches = g.h_count - singles;
    batched_requests = int_of_float g.h_sum - singles;
    max_batch = !max_batch;
    queued;
    inflight;
  }
