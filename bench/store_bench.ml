(* bench store: the durable artifact store scenario.

   Three measurements, all against throwaway temp files:

   1. raw log micro   - append/read throughput, scan-on-open cost, and what
                        compaction reclaims after rewriting half the keys;
   2. service restart - a compile-request replay writing through to a fresh
                        store, then a *restarted* service whose cache
                        warm-starts from the same file (the kill-and-restart
                        path serve-bench --store exercises);
   3. DSE checkpoints - interval-1 checkpointing overhead over an
                        uncheckpointed run, and the cost of resuming a run
                        interrupted halfway.  The scenario fails hard if the
                        resumed run does not reproduce the uninterrupted
                        objective bit for bit. *)

open Overgen_workload
module Store = Overgen_store.Store
module Dse = Overgen_dse.Dse
module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Trace = Overgen_service.Trace
module Admission = Overgen_fleet.Admission

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let with_store_file f =
  let path = Filename.temp_file "overgen-store-bench" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_store path =
  match Store.open_ ~path () with Ok s -> s | Error e -> failwith e

(* --- 1: raw log --- *)

let micro () =
  with_store_file @@ fun path ->
  let n = 2000 in
  let value = String.make 512 'x' in
  let key i = Printf.sprintf "key-%04d" i in
  let s = open_store path in
  let (), append_s =
    time (fun () ->
        for i = 0 to n - 1 do
          Store.put s ~ns:"micro" ~key:(key i) value
        done)
  in
  Store.sync s;
  let (), read_s =
    time (fun () ->
        for i = 0 to n - 1 do
          ignore (Store.get s ~ns:"micro" ~key:(key i))
        done)
  in
  Store.close s;
  let s, open_s = time (fun () -> open_store path) in
  (* rewrite half the keys: dead bytes accumulate, compaction reclaims them *)
  for i = 0 to (n / 2) - 1 do
    Store.put s ~ns:"micro" ~key:(key i) value
  done;
  let before = Store.file_bytes s in
  let (), compact_s = time (fun () -> Store.compact s) in
  let after = Store.file_bytes s in
  Store.close s;
  let per_op total = total /. float_of_int n *. 1e6 in
  Printf.printf "raw log, %d x %dB records:\n" n (String.length value);
  Printf.printf "  append %8.2f us/op   read %8.2f us/op   scan-on-open %6.1f ms\n"
    (per_op append_s) (per_op read_s) (open_s *. 1000.0);
  Printf.printf "  compact %6.1f ms: %d -> %d bytes (reclaimed %d)\n\n"
    (compact_s *. 1000.0) before after (before - after)

(* --- 2: service restart --- *)

let restart () =
  with_store_file @@ fun path ->
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Exp_common.general ()) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let requests = 200 in
  let trace =
    Trace.generate
      (Trace.spec ~seed:42 ~requests ~users:6 ~working_set:2
         ~overlays:[ ("general", Kernels.all) ]
         ())
  in
  let replay label store =
    let cache = Cache.create ~store () in
    let svc = Service.create ~caching:true ~cache registry in
    let responses, wall_s =
      time (fun () -> Admission.run (Admission.create svc) trace)
    in
    Service.shutdown svc;
    let failures =
      List.length
        (List.filter
           (fun (r : Service.response) -> Result.is_error r.result)
           responses)
    in
    let stats = Cache.stats cache in
    Printf.printf "  %-28s %8.1f req/s   hit %5.1f%%   warm-loaded %3d   failures %d\n"
      label
      (float_of_int requests /. wall_s)
      (100.0 *. Cache.hit_rate stats)
      (Cache.warm_loaded cache) failures
  in
  Printf.printf "service restart, %d requests writing through to a store:\n"
    requests;
  let s1 = open_store path in
  replay "first run (cold disk)" s1;
  Store.close s1;
  let s2 = open_store path in
  replay "restarted (warm from disk)" s2;
  Store.close s2;
  print_newline ()

(* --- 3: DSE checkpoint/resume --- *)

let checkpointing () =
  let model = Exp_common.model () in
  let apps =
    Dse.compile_apps ~tuned:false [ Kernels.find "vecmax"; Kernels.find "fir" ]
  in
  let config =
    { Dse.default_config with iterations = 120; migration_interval = 10 }
  in
  let plain, plain_s = time (fun () -> Dse.explore ~config ~model apps) in
  let cp_s, resume_s, resumed =
    with_store_file @@ fun path ->
    let s = open_store path in
    let cp = { Dse.store = s; key = "bench"; interval = 1 } in
    let _, cp_s =
      time (fun () -> Dse.explore ~config ~checkpoint:cp ~model apps)
    in
    Store.close s;
    Sys.remove path;
    (* interrupt halfway, then resume from the durable checkpoint *)
    let s = open_store path in
    let cp = { Dse.store = s; key = "bench"; interval = 1 } in
    ignore
      (Dse.explore ~config ~checkpoint:cp ~stop_after_rounds:6 ~model apps);
    let resumed, resume_s =
      time (fun () -> Dse.explore ~config ~checkpoint:cp ~resume:true ~model apps)
    in
    Store.close s;
    (cp_s, resume_s, resumed)
  in
  if resumed.Dse.best.objective <> plain.Dse.best.objective then
    failwith
      (Printf.sprintf
         "store bench: resumed DSE diverged (objective %.6f vs %.6f)"
         resumed.Dse.best.objective plain.Dse.best.objective);
  Printf.printf "DSE checkpoint/resume, %d iterations over 2 kernels:\n"
    config.iterations;
  Printf.printf
    "  uncheckpointed %6.2f s   interval-1 checkpoints %6.2f s (overhead %+.1f%%)\n"
    plain_s cp_s
    (100.0 *. ((cp_s /. plain_s) -. 1.0));
  Printf.printf
    "  killed at round 6 of 12, resume finished in %6.2f s; objective matches \
     the uninterrupted run (%.2f)\n\n"
    resume_s resumed.Dse.best.objective

let run () =
  Exp_common.header "bench store: durable artifact store";
  micro ();
  restart ();
  checkpointing ()
