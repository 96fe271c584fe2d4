module Rng = Overgen_util.Rng

type kind = Transient | Deterministic

exception Injected of { point : string; kind : kind }

let kind_to_string = function
  | Transient -> "transient"
  | Deterministic -> "deterministic"

type config = {
  seed : int;
  rate : float;
  transient_fraction : float;
  points : string list;
}

let default_config = { seed = 1; rate = 0.2; transient_fraction = 1.0; points = [] }

module Points = struct
  let mdfg_compile = "mdfg.compile"
  let scheduler_schedule_app = "scheduler.schedule_app"
  let oracle_synth = "oracle.synth"
  let cache_store = "cache.store"
  let service_process = "service.process"
  let store_append = "store.append"
  let store_torn = "store.torn_write"
  let net_frame_corrupt = "net.frame_corrupt"
  let net_conn_drop = "net.conn_drop"

  let all =
    [ mdfg_compile; scheduler_schedule_app; oracle_synth; cache_store;
      service_process; store_append; store_torn; net_frame_corrupt;
      net_conn_drop ]
end

(* Disarmed is the overwhelmingly common state: one atomic load and a
   branch per fault point, nothing else. *)
let state : config option Atomic.t = Atomic.make None

type counts = { mutable visits : int; mutable injected : int }

let m = Mutex.create ()
let table : (string, counts) Hashtbl.t = Hashtbl.create 8

let arm cfg =
  if cfg.rate < 0.0 || cfg.rate > 1.0 then
    invalid_arg "Fault.arm: rate outside [0, 1]";
  if cfg.transient_fraction < 0.0 || cfg.transient_fraction > 1.0 then
    invalid_arg "Fault.arm: transient_fraction outside [0, 1]";
  Atomic.set state (Some cfg)

let disarm () = Atomic.set state None
let armed () = Atomic.get state <> None

let reset_stats () =
  Mutex.lock m;
  Hashtbl.reset table;
  Mutex.unlock m

let stats () =
  Mutex.lock m;
  let l = Hashtbl.fold (fun p c acc -> (p, c.visits, c.injected) :: acc) table [] in
  Mutex.unlock m;
  List.sort compare l

(* The whole plan is a pure function of (seed, point, occurrence index):
   replaying a scenario with the same seed injects the same faults at the
   same per-point visit indices, regardless of how worker domains
   interleave the visits. *)
let would_inject cfg point n =
  let r = Rng.of_string (Printf.sprintf "%d\x00%s\x00%d" cfg.seed point n) in
  if Rng.float r 1.0 >= cfg.rate then None
  else
    Some
      (if Rng.float r 1.0 < cfg.transient_fraction then Transient
       else Deterministic)

let point pt =
  match Atomic.get state with
  | None -> ()
  | Some cfg ->
    if cfg.points = [] || List.mem pt cfg.points then begin
      Mutex.lock m;
      let c =
        match Hashtbl.find_opt table pt with
        | Some c -> c
        | None ->
          let c = { visits = 0; injected = 0 } in
          Hashtbl.add table pt c;
          c
      in
      let n = c.visits in
      c.visits <- n + 1;
      let verdict = would_inject cfg pt n in
      (match verdict with
      | Some _ -> c.injected <- c.injected + 1
      | None -> ());
      Mutex.unlock m;
      match verdict with
      | Some kind -> raise (Injected { point = pt; kind })
      | None -> ()
    end

let is_transient = function
  | Injected { kind = Transient; _ } -> true
  | _ -> false

let describe = function
  | Injected { point; kind } ->
    Printf.sprintf "injected %s fault at %s" (kind_to_string kind) point
  | e -> Printexc.to_string e

let with_faults cfg f =
  arm cfg;
  reset_stats ();
  Fun.protect ~finally:disarm f
