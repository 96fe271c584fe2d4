(* The fault-tolerance benchmark scenario: the compile service replayed
   under deterministic seeded fault injection.  Every configuration must
   return exactly one response per request -- faulted requests surface as
   [Error] responses, they never take down in-flight neighbours -- and the
   deterministic no-fault replay doubles as the baseline the warm numbers
   are compared against.  Invariant violations are fatal ([failwith]), so
   this scenario is also the CI fault-smoke gate (make check-fault). *)

open Overgen_workload
module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Trace = Overgen_service.Trace
module Telemetry = Overgen_service.Telemetry
module Fault = Overgen_fault.Fault
module Log = Overgen_obs.Obs.Log
module Admission = Overgen_fleet.Admission

let requests = 120
let fault_seed = 9
let rate = 0.2

(* Hard invariants: one response per request, ids covering the trace
   exactly.  The service sorts responses by request id, so after a sort
   check we can require ids = 0..n-1. *)
let check_responses ~label trace (responses : Service.response list) =
  if List.length responses <> List.length trace then
    failwith
      (Printf.sprintf "%s: %d responses for %d requests" label
         (List.length responses) (List.length trace));
  List.iteri
    (fun i (r : Service.response) ->
      if r.request.id <> i then
        failwith
          (Printf.sprintf "%s: response %d carries request id %d" label i
             r.request.id))
    responses

let replay registry trace ~mode ~policy ~faults =
  let svc =
    Service.create ~mode ~policy ~caching:true
      ~cache:(Cache.create ~capacity:1024 ())
      registry
  in
  let t0 = Unix.gettimeofday () in
  let run () = Admission.run (Admission.create svc) trace in
  let responses =
    match faults with
    | None -> run ()
    | Some cfg -> Fault.with_faults cfg run
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Service.shutdown svc;
  (responses, wall_s, Telemetry.snapshot (Service.telemetry svc))

let run () =
  let registry = Registry.create () in
  (match Registry.register registry ~name:"general" (Exp_common.general ()) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let spec =
    Trace.spec ~seed:42 ~requests ~users:6 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ]
      ()
  in
  let trace = Trace.generate spec in
  (* start the flight recorder clean: the assertions below must see this
     run's events, not a previous scenario's *)
  Log.clear Log.default;
  let cfg = { Fault.default_config with seed = fault_seed; rate } in
  Printf.printf
    "fault injection: %d requests, seed %d, rate %.0f%%, all faults transient\n\n"
    requests fault_seed (100.0 *. rate);
  Printf.printf "%-30s %8s %8s %8s %8s %8s\n" "configuration" "ok" "error"
    "faults" "retries" "deadline";
  let row label (responses, _wall_s, (snap : Telemetry.snapshot)) =
    check_responses ~label trace responses;
    let ok, err =
      List.fold_left
        (fun (ok, err) (r : Service.response) ->
          if Result.is_ok r.result then (ok + 1, err) else (ok, err + 1))
        (0, 0) responses
    in
    Printf.printf "%-30s %8d %8d %8d %8d %8d\n" label ok err snap.faults
      snap.retries snap.deadlines;
    (responses, snap)
  in
  let policy = Service.default_policy in
  let baseline, _ =
    row "deterministic, no faults"
      (replay registry trace ~mode:Service.Deterministic ~policy ~faults:None)
  in
  ignore
    (row "deterministic, 20% faults"
       (replay registry trace ~mode:Service.Deterministic ~policy
          ~faults:(Some cfg)));
  ignore
    (row "4 workers, 20% faults"
       (replay registry trace ~mode:(Service.Workers 4) ~policy
          ~faults:(Some cfg)));
  let deadline_policy = { policy with deadline_s = Some 30.0 } in
  let strict, _ =
    row "4 workers, faults + deadline"
      (replay registry trace ~mode:(Service.Workers 4) ~policy:deadline_policy
         ~faults:(Some cfg))
  in
  (* With generous retries the injected transients must all be absorbed:
     the faulted replay converges to the same per-request outcomes as the
     clean baseline. *)
  let retried_policy = { policy with retries = 8 } in
  let absorbed, _ =
    row "4 workers, faults, retries 8"
      (replay registry trace ~mode:(Service.Workers 4) ~policy:retried_policy
         ~faults:(Some cfg))
  in
  List.iter2
    (fun (b : Service.response) (a : Service.response) ->
      if Result.is_ok b.result <> Result.is_ok a.result then
        failwith
          (Printf.sprintf
             "request %d: retried outcome diverges from no-fault baseline"
             b.request.id))
    baseline absorbed;
  ignore strict;
  print_newline ();
  Printf.printf "fault points (seed %d, final replay):\n" fault_seed;
  List.iter
    (fun (point, visits, injected) ->
      Printf.printf "  %-26s %6d visits  %5d injected\n" point visits injected)
    (Fault.stats ());
  (* the flight recorder saw the whole campaign: the injected faults and
     the retries that absorbed them must be on the record *)
  let events = Log.recent Log.default in
  let saw name = List.exists (fun (e : Log.event) -> e.Log.name = name) events in
  if not (saw "fault") then
    failwith "flight recorder: no fault events despite injected faults";
  if not (saw "retry") then
    failwith "flight recorder: no retry events despite retried transients";
  Printf.printf
    "flight recorder: %d recent events (faults and retries on the record)\n"
    (List.length events);
  Printf.printf "\nfault scenario ok: %d/%d invariants held\n"
    (5 * List.length trace) (5 * List.length trace)
