module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Store = Overgen_store.Store
module Dse = Overgen_dse.Dse
module Oracle = Overgen_fpga.Oracle
module Predict = Overgen_mlp.Predict
module Ir = Overgen_workload.Ir
module Log = Overgen_obs.Obs.Log

(* Per-kernel demand, the workload mix the background DSE optimizes for.
   [missed] counts completions that actually ran the scheduler (or
   failed) — traffic the current fleet serves well from cache does not
   pull a new overlay into existence. *)
type kstat = { kernel : Ir.kernel; mutable count : int; mutable missed : int }

type config = {
  protected : string list;
  promote_min_requests : int;
  dse_iterations : int;
  dse_top_kernels : int;
  dse_seed : int;
  gc_on_retire : bool;
}

let default_config =
  {
    protected = [];
    promote_min_requests = 200;
    dse_iterations = 400;
    dse_top_kernels = 4;
    dse_seed = 11;
    gc_on_retire = true;
  }

type t = {
  registry : Registry.t;
  cache : Cache.t option;
  store : Store.t option;
  model : Predict.t;
  cfg : config;
  m : Mutex.t;
  kernels : (string, kstat) Hashtbl.t;
  mutable observed : int;  (* completions since the last promote *)
  mutable promotes : int;
}

let create ?(config = default_config) ?cache ?store ~model registry =
  {
    registry;
    cache;
    store;
    model;
    cfg = config;
    m = Mutex.create ();
    kernels = Hashtbl.create 16;
    observed = 0;
    promotes = 0;
  }

let observe t (resp : Service.response) =
  Mutex.lock t.m;
  (match resp.Service.request.Service.payload with
  | Service.Kernel k ->
    let ks =
      match Hashtbl.find_opt t.kernels k.Ir.name with
      | Some ks -> ks
      | None ->
        let ks = { kernel = k; count = 0; missed = 0 } in
        Hashtbl.add t.kernels k.Ir.name ks;
        ks
    in
    ks.count <- ks.count + 1;
    if not resp.Service.cache_hit then ks.missed <- ks.missed + 1
  | Service.Source _ -> ());
  t.observed <- t.observed + 1;
  Mutex.unlock t.m

let attach t admission = Admission.on_complete admission (observe t)

let short fp = String.sub fp 0 (min 12 (String.length fp))

(* Retire: unregister, and — when no surviving name aliases the same
   design — purge every schedule-cache record keyed by its fingerprint
   from memory and the durable log, then compact the store ("store gc")
   so the bytes are actually reclaimed.  The purge-before-compact order
   is the orphan guard: compacting first would faithfully carry the
   now-unreachable records into the fresh log forever. *)
let retire t name =
  if List.mem name t.cfg.protected then
    Error (Printf.sprintf "overlay %S is protected" name)
  else
    match Registry.remove t.registry name with
    | Error e -> Error e
    | Ok entry ->
      let fingerprint = entry.Registry.fingerprint in
      let shared = Registry.find_fingerprint t.registry fingerprint <> [] in
      let purged =
        if shared then 0
        else
          match (t.cache, t.store) with
          | Some c, _ -> Cache.purge_fingerprint c ~fingerprint
          | None, Some s -> Cache.purge_fingerprint_store s ~fingerprint
          | None, None -> 0
      in
      if t.cfg.gc_on_retire then
        Option.iter (fun s -> Store.compact s) t.store;
      Log.record ~pin:true Log.default "retire"
        ~attrs:
          [
            ("overlay", name);
            ("fingerprint", short fingerprint);
            ("purged", string_of_int purged);
            ("shared", string_of_bool shared);
          ];
      Ok purged

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* The background-DSE trigger: once enough completions accumulated,
   explore for the hottest under-served kernels (miss-weighted — cache
   hits are already served well) and atomically promote the winner under
   a fresh fleet-N name.  The run checkpoints into the durable store, so
   a killed process resumes its exploration instead of restarting it. *)
let promote_now t ~kernels ~name =
  match kernels with
  | [] -> Error "no kernels to explore for"
  | kernels -> (
    let apps = Dse.compile_apps ~tuned:false kernels in
    let config =
      {
        Dse.default_config with
        iterations = t.cfg.dse_iterations;
        seed = t.cfg.dse_seed + t.promotes;
      }
    in
    let checkpoint =
      Option.map
        (fun s -> { Dse.store = s; key = "fleet-dse-" ^ name; interval = 1 })
        t.store
    in
    let result = Dse.explore ~config ?checkpoint ~model:t.model apps in
    let synth = Oracle.synth_full result.Dse.best.Dse.sys in
    let overlay =
      { Overgen.design = result.Dse.best; synth; model = t.model; dse = Some result }
    in
    match Registry.register t.registry ~name overlay with
    | Error e -> Error e
    | Ok entry ->
      Mutex.lock t.m;
      t.promotes <- t.promotes + 1;
      t.observed <- 0;
      Hashtbl.reset t.kernels;
      Mutex.unlock t.m;
      Log.record ~pin:true Log.default "promote"
        ~attrs:
          [
            ("overlay", name);
            ("fingerprint", short entry.Registry.fingerprint);
            ("objective", Printf.sprintf "%.4f" result.Dse.best.Dse.objective);
            ("kernels",
             String.concat "," (List.map (fun k -> k.Ir.name) kernels));
          ];
      Ok entry)

let hot_kernels t =
  Mutex.lock t.m;
  let ks = Hashtbl.fold (fun _ ks acc -> ks :: acc) t.kernels [] in
  Mutex.unlock t.m;
  ks
  |> List.sort (fun a b ->
         compare (b.missed, b.count, a.kernel.Ir.name)
           (a.missed, a.count, b.kernel.Ir.name))
  |> take t.cfg.dse_top_kernels
  |> List.map (fun ks -> ks.kernel)

let maybe_promote t =
  let ready =
    Mutex.lock t.m;
    let r = t.observed >= t.cfg.promote_min_requests in
    Mutex.unlock t.m;
    r
  in
  if not ready then None
  else
    match hot_kernels t with
    | [] -> None
    | kernels -> (
      let name = Printf.sprintf "fleet-%d" (t.promotes + 1) in
      match promote_now t ~kernels ~name with
      | Ok entry -> Some entry
      | Error e ->
        Log.record ~level:Log.Warn Log.default "promote_failed"
          ~attrs:[ ("overlay", name); ("error", e) ];
        None)

let promotes t =
  Mutex.lock t.m;
  let n = t.promotes in
  Mutex.unlock t.m;
  n
