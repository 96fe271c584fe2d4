module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Store = Overgen_store.Store
module Metrics = Overgen_obs.Metrics
module Telemetry = Overgen_service.Telemetry
module Log = Overgen_obs.Obs.Log
module Tenant = Overgen_fleet.Tenant
module Admission = Overgen_fleet.Admission

type peer = { host : string; port : int }

let parse_peer s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad host:port %S" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some port when host <> "" && port >= 0 && port < 65536 ->
      Ok { host; port }
    | _ -> Error (Printf.sprintf "bad host:port %S" s))

let parse_cluster s =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | hp :: rest -> (
      match parse_peer hp with
      | Ok peer -> go (peer :: acc) rest
      | Error _ as e -> e)
  in
  (* [split_on_char] yields at least one endpoint, and [parse_peer] rejects
     an empty one, so an empty cluster is an error *)
  go [] (String.split_on_char ',' s)

type config = {
  me : int;
  cluster : peer array;
  store_path : string option;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  policy : Service.policy;
  tenants : Tenant.t list;
}

let default_config ~cluster ~me =
  {
    me;
    cluster;
    store_path = None;
    workers = 2;
    queue_capacity = 1024;
    cache_capacity = 4096;
    policy = Service.default_policy;
    tenants = [];
  }

type t = {
  config : config;
  map : Shard_map.t;
  store : Store.t option;
  registry : Registry.t;
  cache : Cache.t;
  service : Service.t;
  admission : Admission.t;
  m : Mutex.t;
  mutable quiesced_ : bool;
  mutable closed : bool;
  c_served : Metrics.counter;
}

let me t = t.config.me
let registry t = t.registry
let cache t = t.cache

let metrics t = Telemetry.registry (Service.telemetry t.service)
let served t = Metrics.counter_value t.c_served

let inflight t =
  let s = Admission.stats t.admission in
  s.Admission.queued + s.Admission.inflight

let quiesced t =
  Mutex.lock t.m;
  let q = t.quiesced_ in
  Mutex.unlock t.m;
  q

let init ?setup config =
  if config.me < 0 || config.me >= Array.length config.cluster then
    Error
      (Printf.sprintf "Node.init: me=%d outside cluster of %d" config.me
         (Array.length config.cluster))
  else if config.workers < 1 then Error "Node.init: workers < 1"
  else
    let opened =
      match config.store_path with
      | None -> Ok None
      | Some path -> (
        match Store.open_ ~path () with
        | Ok s -> Ok (Some s)
        | Error e -> Error (Printf.sprintf "Node.init: store %s: %s" path e))
    in
    match opened with
    | Error _ as e -> e
    | Ok store -> (
      match
        let registry = Registry.create ?store () in
        (* the store may already hold the overlays (restart path) — [setup]
           only fills in what restore left missing *)
        (match setup with Some f -> f registry | None -> ());
        let cache = Cache.create ~capacity:config.cache_capacity ?store () in
        let service =
          Service.create
            ~mode:(Service.Workers config.workers)
            ~cache ~policy:config.policy registry
        in
        let admission =
          Admission.create ~capacity:config.queue_capacity
            ~tenants:config.tenants service
        in
        {
          config;
          map = Shard_map.make ~shards:(Array.length config.cluster);
          store;
          registry;
          cache;
          service;
          admission;
          m = Mutex.create ();
          quiesced_ = false;
          closed = false;
          c_served =
            Metrics.counter
              (Telemetry.registry (Service.telemetry service))
              "overgen_net_served"
              ~help:"compile requests admitted by this shard";
        }
      with
      | t ->
        (* Store recovery is a pinned flight-recorder milestone: the
           post-mortem of a kill-and-restart must show what the shard
           replayed, however much traffic followed. *)
        if t.store <> None then
          Log.record ~pin:true Log.default "store_replay"
            ~attrs:
              [
                ("shard", string_of_int config.me);
                ("warm_loaded", string_of_int (Cache.warm_loaded t.cache));
                ( "overlays",
                  string_of_int (List.length (Registry.names t.registry)) );
              ];
        Ok t
      | exception e ->
        Option.iter Store.close store;
        Error (Printf.sprintf "Node.init: %s" (Printexc.to_string e)))

let owner_of t (req : Wire.request) =
  Shard_map.owner t.map
    (Wire.route_key ~overlay:req.overlay ~payload:req.payload ~tuned:req.tuned)

let service_payload : Wire.payload -> Service.payload = function
  | Wire.Kernel k -> Service.Kernel k
  | Wire.Source src -> Service.Source src

let wire_error_of_service : Service.error -> Wire.wire_error = function
  | Service.Unknown_overlay n -> Wire.Unknown_overlay n
  | Service.Queue_full -> Wire.Queue_full
  | Service.Source_error e -> Wire.Source_error e
  | Service.Compile_error e -> Wire.Compile_error e
  | Service.Transient_failure e -> Wire.Transient_failure e
  | Service.Deadline_exceeded -> Wire.Deadline_exceeded
  | Service.Quota_exceeded -> Wire.Quota_exceeded
  | Service.Shutdown -> Wire.Shutting_down

let result_of_response ~shard ~id (resp : Service.response) =
  Wire.Result
    {
      id;
      outcome =
        (match resp.Service.result with
        | Ok schedules -> Ok schedules
        | Error e -> Error (wire_error_of_service e));
      cache_hit = resp.Service.cache_hit;
      service_s = resp.Service.service_s;
      shard;
    }

let stats_msg t =
  let s = Cache.stats t.cache in
  Wire.Stats
    {
      shard = t.config.me;
      served = served t;
      hits = s.Cache.hits;
      misses = s.Cache.misses;
      warm_loaded = Cache.warm_loaded t.cache;
    }

(* The gauges are state, not events: set from the live values at scrape
   time, so no timer has to keep copies fresh. *)
let metrics_text t =
  let reg = metrics t in
  let gauge name help v = Metrics.set (Metrics.gauge reg name ~help) v in
  gauge "overgen_net_cache_entries" "schedule cache entries held by this shard"
    (float_of_int (Cache.stats t.cache).Cache.entries);
  gauge "overgen_net_quiesced" "1 while draining, 0 while admitting"
    (if quiesced t then 1.0 else 0.0);
  Metrics.render_prometheus reg

let quiesce t =
  Mutex.lock t.m;
  let fresh = not t.quiesced_ in
  t.quiesced_ <- true;
  Mutex.unlock t.m;
  if fresh then
    Log.record ~pin:true Log.default "quiesce"
      ~attrs:[ ("shard", string_of_int t.config.me) ]

let health_msg t =
  Wire.Health
    {
      shard = t.config.me;
      quiesced = quiesced t;
      served = served t;
      inflight = inflight t;
      warm_loaded = Cache.warm_loaded t.cache;
    }

let handle_net t (msg : Wire.req_msg) ~respond =
  match msg with
  | Wire.Ping ->
    respond
      (Wire.Pong { shard = t.config.me; shards = Array.length t.config.cluster })
  | Wire.Stats_req -> respond (stats_msg t)
  | Wire.Quiesce ->
    quiesce t;
    respond Wire.Bye
  | Wire.Metrics_req ->
    respond (Wire.Metrics_dump { shard = t.config.me; text = metrics_text t })
  | Wire.Health_req -> respond (health_msg t)
  | Wire.Recent_events_req { max } ->
    let events =
      List.map Log.event_json (Log.recent ~max:(min max 10_000) Log.default)
    in
    respond (Wire.Events { shard = t.config.me; events })
  | Wire.Compile req ->
    if quiesced t then
      respond
        (Wire.Result
           {
             id = req.Wire.id;
             outcome = Error Wire.Shutting_down;
             cache_hit = false;
             service_s = 0.0;
             shard = t.config.me;
           })
    else
      let owner = owner_of t req in
      if owner <> t.config.me then begin
        Log.record ~trace:req.Wire.trace Log.default "shard_redirect"
          ~attrs:
            [
              ("id", string_of_int req.Wire.id);
              ("shard", string_of_int t.config.me);
              ("owner", string_of_int owner);
            ];
        respond (Wire.Redirect { id = req.Wire.id; owner })
      end
      else
        let sreq =
          {
            Service.id = req.Wire.id;
            user = req.Wire.user;
            tenant = req.Wire.tenant;
            overlay = req.Wire.overlay;
            payload = service_payload req.Wire.payload;
            tuned = req.Wire.tuned;
            trace = req.Wire.trace;
            (* the admission layer stamps the tenant's deadline class;
               without one the service policy governs *)
            deadline_s = None;
          }
        in
        Metrics.incr t.c_served;
        (* the admission queue answers every request through [k] —
           rejections and quota sheds included *)
        Admission.submit_k t.admission sreq ~k:(fun resp ->
            respond (result_of_response ~shard:t.config.me ~id:req.Wire.id resp))

let shutdown t =
  Mutex.lock t.m;
  let already = t.closed in
  t.closed <- true;
  t.quiesced_ <- true;
  Mutex.unlock t.m;
  if not already then begin
    Admission.drain t.admission;
    Service.shutdown t.service;
    Option.iter Store.close t.store
  end
