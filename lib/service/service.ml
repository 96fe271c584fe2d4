open Overgen_workload
module Compile = Overgen_mdfg.Compile
module Pool = Overgen_par.Pool
module Obs = Overgen_obs.Obs
module Fault = Overgen_fault.Fault
module Rng = Overgen_util.Rng

type mode = Deterministic | Workers of int

(* What a request asks to compile: an already-lowered IR kernel (the
   in-process path) or pragma'd C source for the frontend to parse on
   the worker — the paper's programming interface, submitted as-is. *)
type payload = Kernel of Ir.kernel | Source of string

let payload_name = function
  | Kernel k -> k.Ir.name
  | Source src ->
    Option.value ~default:"<source>" (Overgen_frontend.Frontend.source_name src)

type request = {
  id : int;
  user : string;
  tenant : string;
  overlay : string;
  payload : payload;
  tuned : bool;
  trace : string;
  deadline_s : float option;
}

type error =
  | Unknown_overlay of string
  | Queue_full
  | Quota_exceeded
  | Source_error of string
  | Compile_error of string
  | Transient_failure of string
  | Deadline_exceeded
  | Shutdown

let error_to_string = function
  | Unknown_overlay name -> Printf.sprintf "unknown overlay %S" name
  | Queue_full -> "queue full (admission rejected)"
  | Quota_exceeded -> "tenant quota exceeded (request shed)"
  | Source_error e -> "source error: " ^ e
  | Compile_error e -> "compile error: " ^ e
  | Transient_failure e -> "transient failure (retries exhausted): " ^ e
  | Deadline_exceeded -> "deadline exceeded"
  | Shutdown -> "service is shut down"

type policy = { deadline_s : float option; retries : int }

let default_policy = { deadline_s = None; retries = 2 }

type response = {
  request : request;
  result : (Overgen_scheduler.Schedule.t list, error) result;
  cache_hit : bool;
  service_s : float;
}

type t = {
  registry : Registry.t;
  cache_ : Cache.t option;
  telemetry_ : Telemetry.t;
  queue_wait : Overgen_obs.Metrics.histogram;
      (* admission-to-processing wait, on the telemetry registry *)
  mode : mode;
  policy : policy;
  pool : Pool.t;
  (* payload text digest -> (mDFG variant sets, their content hash); the
     second memoization level that lets cache hits skip the frontend and
     the compiler, bounded like the schedule cache *)
  memo : (string, Compile.compiled * string) Lru.t;
  memo_m : Mutex.t;
}

let telemetry t = t.telemetry_
let cache t = t.cache_

let memo_entries t =
  Mutex.lock t.memo_m;
  let n = Lru.length t.memo in
  Mutex.unlock t.memo_m;
  n

(* Keyed on the payload's own text, so a hit costs one digest: a source
   is parsed only on a miss, and a rejected one — deterministic, same
   source, same error — is not memoized.  Source payloads are parsed
   here, inside the per-request fault isolation.  A parsed kernel lands
   on exactly the same schedule-cache key as its in-process [Kernel]
   equivalent: the frontend is invisible to the cache. *)
let memoized_compile t payload tuned =
  let key =
    (match payload with
    | Kernel k -> "ir:" ^ Digest.string (Ir.pretty k)
    | Source src -> "src:" ^ Digest.string src)
    ^ if tuned then "+t" else ""
  in
  Mutex.lock t.memo_m;
  let found = Lru.find t.memo key in
  Mutex.unlock t.memo_m;
  match found with
  | Some cc -> Ok cc
  | None ->
    let kernel =
      match payload with
      | Kernel k -> Ok k
      | Source src ->
        Result.map_error Overgen_frontend.Frontend.error_to_string
          (Overgen_frontend.Frontend.parse src)
    in
    Result.map
      (fun k ->
        let compiled = Compile.compile ~tuned k in
        let cc = (compiled, Compile.hash_compiled compiled) in
        Mutex.lock t.memo_m;
        Lru.add t.memo key cc;
        Mutex.unlock t.memo_m;
        cc)
      kernel

let fault_message = function
  | Fault.Injected _ as e -> Fault.describe e
  | e -> Printexc.to_string e

(* Exponential backoff from a 1 ms base with full jitter, seeded by
   (request id, attempt) so it is independent of domain timing. *)
let backoff_pause req attempt =
  let r = Rng.of_string (Printf.sprintf "backoff:0:%d:%d" req.id attempt) in
  let exp = 0.001 *. (2.0 ** float_of_int attempt) in
  let d = Float.min 0.05 ((exp /. 2.0) +. Rng.float r (exp /. 2.0)) in
  if d > 0.0 then Unix.sleepf d

(* One request's processing lifecycle, traced as a "request" span with
   the queue wait ([admitted_at] to now) and outcome as attributes, and
   the compile itself as a nested "compile_schedule" span.

   Failure is a first-class code path here: an exception anywhere in the
   resolve — a raising compiler, scheduler or cache store, injected or
   genuine — is confined to this request.  Transient failures are retried
   under the policy's budget with seeded exponential backoff; everything
   else becomes an [Error] response for this request alone. *)
let process t ~admitted_at req =
  let t0 = Unix.gettimeofday () in
  Overgen_obs.Metrics.observe t.queue_wait (t0 -. admitted_at);
  (* Re-establish the request's trace context on the worker domain: the
     client set it at submission, but this code runs on whichever domain
     picked the job up. *)
  Obs.Span.with_trace req.trace @@ fun () ->
  (* the attributes cost a source peek and a float format, so they are
     built only when the span is recorded *)
  let attrs =
    if Obs.on () then
      [
        ("id", string_of_int req.id);
        ("user", req.user);
        ("overlay", req.overlay);
        ("kernel", payload_name req.payload);
        ("queue_wait_ms", Printf.sprintf "%.3f" ((t0 -. admitted_at) *. 1000.0));
      ]
    else []
  in
  Obs.Span.with_span "request" ~attrs @@ fun () ->
  (* A per-request deadline (stamped by an admission layer from the
     tenant's deadline class) overrides the service-wide policy one. *)
  let deadline =
    match req.deadline_s with Some _ as d -> d | None -> t.policy.deadline_s
  in
  let past_deadline now =
    match deadline with Some d -> now -. admitted_at > d | None -> false
  in
  let resolve () =
    Fault.point Fault.Points.service_process;
    match Registry.find t.registry req.overlay with
    | None -> (Error (Unknown_overlay req.overlay), false)
    | Some entry -> (
      match memoized_compile t req.payload req.tuned with
      | Error e -> (Error (Source_error e), false)
      | Ok (compiled, chash) -> (
      let compute () =
        Obs.Span.with_span "compile_schedule" @@ fun () ->
        match
          Overgen.compile_variants
            ~opts:{ Overgen.default_opts with tuned = req.tuned }
            entry.overlay compiled
        with
        | Ok c -> Ok c.Overgen.schedules
        | Error e -> Error (Cache.deterministic e)
        | exception (Fault.Injected { kind = Fault.Deterministic; _ } as e) ->
          (* input-determined by construction: cache it like any other
             deterministic compile verdict *)
          Error (Cache.deterministic (fault_message e))
      in
      let lift = function
        | Ok s -> Ok s
        | Error (f : Cache.failure) ->
          Error
            (if f.transient then Transient_failure f.reason
             else Compile_error f.reason)
      in
      match t.cache_ with
      | None -> (lift (compute ()), false)
      | Some c ->
        let key = Cache.key ~fingerprint:entry.fingerprint ~variant_hash:chash in
        let outcome, hit = Cache.find_or_compute c key compute in
        (lift outcome, hit)))
  in
  let rec attempt n =
    match resolve () with
    | v -> v
    | exception e ->
      Telemetry.record_fault t.telemetry_;
      Obs.Log.record ~level:Obs.Log.Warn Obs.Log.default "fault"
        ~attrs:[ ("id", string_of_int req.id); ("error", fault_message e) ];
      if Fault.is_transient e then
        if past_deadline (Unix.gettimeofday ()) then begin
          Telemetry.record_deadline ~tenant:req.tenant t.telemetry_;
          Obs.Log.record ~level:Obs.Log.Warn Obs.Log.default "deadline_shed"
            ~attrs:[ ("id", string_of_int req.id) ];
          (Error Deadline_exceeded, false)
        end
        else if n < t.policy.retries then begin
          Telemetry.record_retry ~tenant:req.tenant t.telemetry_;
          Obs.Log.record Obs.Log.default "retry"
            ~attrs:
              [ ("id", string_of_int req.id); ("attempt", string_of_int n) ];
          backoff_pause req n;
          attempt (n + 1)
        end
        else (Error (Transient_failure (fault_message e)), false)
      else
        (* non-transient: retrying cannot help, isolate and answer *)
        (Error (Compile_error (fault_message e)), false)
  in
  let result, cache_hit =
    if past_deadline t0 then begin
      (* the whole budget went to queueing: shed without compiling *)
      Telemetry.record_deadline ~tenant:req.tenant t.telemetry_;
      Obs.Log.record ~level:Obs.Log.Warn Obs.Log.default "deadline_shed"
        ~attrs:[ ("id", string_of_int req.id); ("where", "queue") ];
      (Error Deadline_exceeded, false)
    end
    else attempt 0
  in
  let service_s = Unix.gettimeofday () -. t0 in
  let outcome =
    match result with
    | Error _ -> Telemetry.Failed
    | Ok _ ->
      if Option.is_none t.cache_ then Telemetry.Uncached
      else if cache_hit then Telemetry.Hit
      else Telemetry.Miss
  in
  Obs.Span.add_attr "outcome"
    (match outcome with
    | Telemetry.Hit -> "hit"
    | Telemetry.Miss -> "miss"
    | Telemetry.Uncached -> "uncached"
    | Telemetry.Failed -> "failed");
  Telemetry.record ~tenant:req.tenant t.telemetry_ outcome ~service_s;
  { request = req; result; cache_hit; service_s }

type job = { req : request; admitted_at : float; k : response -> unit }

(* Last-resort isolation: even if [process] itself raises, the request
   gets its response and the rest of its group is untouched. *)
let run_job t { req; admitted_at; k } =
  let resp =
    try process t ~admitted_at req
    with e ->
      Telemetry.record_fault t.telemetry_;
      Telemetry.record t.telemetry_ Telemetry.Failed ~service_s:0.0;
      Obs.Log.record ~level:Obs.Log.Error ~pin:true ~trace:req.trace
        Obs.Log.default "worker_panic"
        ~attrs:[ ("id", string_of_int req.id); ("error", fault_message e) ];
      {
        request = req;
        result = Error (Compile_error (fault_message e));
        cache_hit = false;
        service_s = 0.0;
      }
  in
  k resp

let create ?(mode = Deterministic) ?(caching = true) ?cache
    ?(policy = default_policy) registry =
  if policy.retries < 0 then invalid_arg "Service.create: retries < 0";
  let pool_mode =
    match mode with
    | Deterministic -> Pool.Deterministic
    | Workers n ->
      if n < 1 then invalid_arg "Service.create: Workers n with n < 1";
      Pool.Domains n
  in
  let cache_ =
    if not caching then None
    else
      Some (match cache with Some c -> c | None -> Cache.create ())
  in
  let telemetry_ = Telemetry.create () in
  {
    registry;
    cache_;
    telemetry_;
    queue_wait =
      Overgen_obs.Metrics.histogram
        (Telemetry.registry telemetry_)
        "overgen_service_queue_wait_seconds"
        ~help:"admission-to-processing wait";
    mode;
    policy;
    (* the admission layer's in-flight window bounds the jobs in here *)
    pool = Pool.create pool_mode;
    memo =
      Lru.create
        ~capacity:
          (match cache_ with
          | Some c -> (Cache.stats c).capacity
          | None -> Cache.default_capacity);
    memo_m = Mutex.create ();
  }

(* The jobs' spans nest under the dispatcher's open span on whichever
   domain runs them, as they do when a Deterministic service runs them
   inline. *)
let dispatch t jobs =
  let parent = Obs.Span.current_id () in
  match
    Pool.submit t.pool (fun () ->
        Obs.Span.with_parent parent (fun () -> List.iter (run_job t) jobs))
  with
  | Ok () -> ()
  | Error Pool.Stopped ->
    List.iter
      (fun j ->
        j.k
          {
            request = j.req;
            result = Error Shutdown;
            cache_hit = false;
            service_s = 0.0;
          })
      jobs

let mode t = t.mode
let policy t = t.policy
let shutdown t = Pool.shutdown t.pool
