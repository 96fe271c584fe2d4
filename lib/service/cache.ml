open Overgen_scheduler
module Fault = Overgen_fault.Fault
module Store = Overgen_store.Store
module Codec = Overgen_store.Codec

type failure = { reason : string; transient : bool }
type outcome = (Schedule.t list, failure) result

let deterministic reason = { reason; transient = false }

(* Only results that are a property of the (overlay, application) inputs
   may be remembered: successes and deterministic errors.  A transient
   failure (timeout, injected fault, flaky infrastructure) must never
   poison the key — the next request for it recomputes.  The same rule
   gates the durable store: deterministic negatives survive a restart,
   transient ones never reach disk. *)
let cacheable = function Ok _ -> true | Error f -> not f.transient

type t = {
  lru : (string, outcome) Lru.t;
  pending : (string, unit) Hashtbl.t;  (* keys being computed right now *)
  store : Store.t option;  (* durable write/read-through backing *)
  mutable warm_loaded_ : int;
  mutable store_reads_ : int;
  mutable hits : int;
  mutable misses : int;
  m : Mutex.t;
  resolved : Condition.t;
}

let ns = "schedule-cache"
let schema = "cache-outcome-v1"

let encode_outcome (o : outcome) = Codec.encode_marshal ~schema o

let decode_outcome s : outcome option =
  match Codec.decode_marshal ~schema s with Ok o -> Some o | Error _ -> None

let default_capacity = 1024

let create ?(capacity = default_capacity) ?store () =
  let t =
    {
      lru = Lru.create ~capacity;
      pending = Hashtbl.create 16;
      store;
      warm_loaded_ = 0;
      store_reads_ = 0;
      hits = 0;
      misses = 0;
      m = Mutex.create ();
      resolved = Condition.create ();
    }
  in
  (* Warm start: replay the persisted outcomes in write order, so the most
     recently written binding lands most recently used and the LRU bound
     applies to the replay exactly as it would have to live traffic.
     Records from an older schema are rejected by the codec and skipped —
     a format bump costs a cold start, never a misparse. *)
  (match store with
  | None -> ()
  | Some s ->
    List.iter
      (fun (k, v) ->
        match decode_outcome v with
        | Some outcome ->
          Lru.add t.lru k outcome;
          t.warm_loaded_ <- t.warm_loaded_ + 1
        | None -> ())
      (Store.bindings s ~ns));
  t

let warm_loaded t = t.warm_loaded_
let store_reads t = t.store_reads_

(* Length-prefixed halves: a plain [fp ^ ":" ^ hash] join would collide
   for distinct inputs if a hash scheme ever emitted a ':' (e.g.
   ("a:b", "c") vs ("a", "b:c")). *)
let key ~fingerprint ~variant_hash =
  Printf.sprintf "%d:%s%d:%s"
    (String.length fingerprint) fingerprint
    (String.length variant_hash) variant_hash

let persist t k v =
  match t.store with
  | None -> ()
  | Some s -> Store.put s ~ns ~key:k (encode_outcome v)

(* With t.m held: the LRU, then the durable store.  An entry evicted from
   memory (or written by a previous process) is still served — and
   promoted back into the LRU — from disk. *)
let lookup_locked t k =
  match Lru.find t.lru k with
  | Some outcome -> Some outcome
  | None -> (
    match t.store with
    | None -> None
    | Some s -> (
      match Option.bind (Store.get s ~ns ~key:k) decode_outcome with
      | Some outcome ->
        t.store_reads_ <- t.store_reads_ + 1;
        Lru.add t.lru k outcome;
        Some outcome
      | None -> None))

(* With t.m held: either the cached outcome, or the right to compute it.
   Waiting re-checks after every resolution broadcast; if the entry was
   already evicted by then — or the computing thread raised and stored
   nothing — the waiter simply computes it itself. *)
let rec acquire t k =
  match lookup_locked t k with
  | Some outcome -> `Hit outcome
  | None ->
    if Hashtbl.mem t.pending k then begin
      Condition.wait t.resolved t.m;
      acquire t k
    end
    else begin
      Hashtbl.add t.pending k ();
      `Compute
    end

let find_or_compute t k compute =
  Mutex.lock t.m;
  match acquire t k with
  | `Hit outcome ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.m;
    (outcome, true)
  | `Compute ->
    t.misses <- t.misses + 1;
    Mutex.unlock t.m;
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.m;
          Hashtbl.remove t.pending k;
          Condition.broadcast t.resolved;
          Mutex.unlock t.m)
        (fun () ->
          let outcome = compute () in
          if cacheable outcome then begin
            Fault.point Fault.Points.cache_store;
            Overgen_obs.Obs.Span.with_span "cache_store"
              ~attrs:[ ("key", String.sub k 0 (min 12 (String.length k))) ]
            @@ fun () ->
            Mutex.lock t.m;
            Lru.add t.lru k outcome;
            Mutex.unlock t.m;
            (* write-through: a store failure (injected or genuine) raises
               out of here and is isolated per-request by the service; the
               in-memory entry above still serves until then *)
            persist t k outcome
          end;
          outcome)
    in
    (outcome, false)

(* Retiring an overlay must take its schedule outcomes with it — in
   memory and on disk — or the durable log accumulates records no live
   fingerprint can ever address again (orphans that survive restarts and
   inflate every warm start).  Keys are the length-prefixed join
   [key], so every key for a fingerprint starts
   with the fingerprint's own length-prefixed form and prefix matching
   cannot collide across fingerprints. *)
let fingerprint_prefix fp = Printf.sprintf "%d:%s" (String.length fp) fp

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let purge_fingerprint_store s ~fingerprint =
  let prefix = fingerprint_prefix fingerprint in
  let keys =
    List.filter (fun (k, _) -> has_prefix ~prefix k) (Store.bindings s ~ns)
  in
  List.iter (fun (k, _) -> Store.delete s ~ns ~key:k) keys;
  List.length keys

let purge_fingerprint t ~fingerprint =
  let prefix = fingerprint_prefix fingerprint in
  Mutex.lock t.m;
  let mem_keys =
    List.filter_map
      (fun (k, _) -> if has_prefix ~prefix k then Some k else None)
      (Lru.to_list t.lru)
  in
  List.iter (fun k -> ignore (Lru.remove t.lru k)) mem_keys;
  Mutex.unlock t.m;
  match t.store with
  | None -> List.length mem_keys
  | Some s ->
    (* the durable side also holds keys already evicted from memory; every
       in-memory cacheable entry was written through, so the store count
       dominates whenever a store is attached *)
    let store_purged = purge_fingerprint_store s ~fingerprint in
    max store_purged (List.length mem_keys)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let stats t =
  Mutex.lock t.m;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = Lru.evictions t.lru;
      entries = Lru.length t.lru;
      capacity = Lru.capacity t.lru;
    }
  in
  Mutex.unlock t.m;
  s

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
