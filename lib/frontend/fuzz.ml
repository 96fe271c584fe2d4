(* The frontend fuzz loop: generate a random well-typed kernel, emit it
   as pragma'd C, parse it back, and push the parsed kernel through the
   real pipeline (mDFG compile -> spatial schedule -> simulation),
   optionally under the fault harness.  The loop's contract mirrors the
   service's isolation contract: a seed may legitimately fail to
   schedule (fabric too small) or hit an injected fault, but a parse
   rejection of emitted source, a structural round-trip mismatch, a
   schedule that fails [Schedule.validate], or any exception other than an
   armed [Fault.Injected] is a violation. *)

open Overgen_workload
module Compile = Overgen_mdfg.Compile
module Spatial = Overgen_scheduler.Spatial
module Schedule = Overgen_scheduler.Schedule
module Sim = Overgen_sim.Sim
module Builder = Overgen_adg.Builder
module Fault = Overgen_fault.Fault
module Rng = Overgen_util.Rng

type summary = {
  runs : int;
  parsed : int;  (** emitted source parsed back successfully *)
  scheduled : int;  (** seeds that placed on the general overlay *)
  schedule_rejected : int;  (** legal "does not fit" outcomes *)
  invalid : int;  (** returned schedules that fail [Schedule.validate] *)
  simulated : int;
  injected : int;  (** armed faults that fired (expected) *)
  escaped : int;  (** exceptions other than armed injections *)
  violations : int;  (** escaped + parse/round-trip failures *)
  coverage : Gen.Cov.t;
  failures : (int * string) list;  (** (seed, what) for the first few *)
}

let max_kept_failures = 10

let fault_points =
  [ Fault.Points.mdfg_compile; Fault.Points.scheduler_schedule_app ]

let run ?(seeds = 100) ?(seed = 0) ?(fault_rate = 0.0) () =
  let sys = Builder.general_overlay () in
  let cov = Gen.Cov.create () in
  let parsed = ref 0
  and scheduled = ref 0
  and schedule_rejected = ref 0
  and invalid = ref 0
  and simulated = ref 0
  and injected = ref 0
  and escaped = ref 0
  and violations = ref 0
  and failures = ref [] in
  let fail i what =
    incr violations;
    if List.length !failures < max_kept_failures then
      failures := (i, what) :: !failures
  in
  for i = 0 to seeds - 1 do
    let rng = Rng.of_string (Printf.sprintf "fuzz:%d:%d" seed i) in
    let k = Gen.kernel ~cov rng in
    let src = C_source.emit k in
    let pipeline () =
      match Frontend.parse src with
      | Error e ->
        fail i
          (Printf.sprintf "emitted source for %s rejected: %s" k.Ir.name
             (Frontend.error_to_string e))
      | Ok k' ->
        if k' <> k then
          fail i (Printf.sprintf "%s: structural round-trip mismatch" k.Ir.name)
        else begin
          incr parsed;
          let compiled = Compile.compile k' in
          match Spatial.schedule_app sys compiled with
          | Error _ -> incr schedule_rejected
          | Ok schedules ->
            incr scheduled;
            List.iter
              (fun s ->
                match Schedule.validate s sys with
                | Ok () -> ()
                | Error e ->
                  incr invalid;
                  fail i (Printf.sprintf "%s: invalid schedule: %s" k.Ir.name e))
              schedules;
            ignore (Sim.run sys schedules);
            incr simulated
        end
    in
    let guarded () =
      try pipeline () with
      | Fault.Injected _ when fault_rate > 0.0 -> incr injected
      | exn ->
        incr escaped;
        fail i
          (Printf.sprintf "%s: escaped exception %s" k.Ir.name
             (Printexc.to_string exn))
    in
    if fault_rate > 0.0 then
      Fault.with_faults
        {
          Fault.seed = seed + i;
          rate = fault_rate;
          transient_fraction = 0.5;
          points = fault_points;
        }
        guarded
    else guarded ()
  done;
  {
    runs = seeds;
    parsed = !parsed;
    scheduled = !scheduled;
    schedule_rejected = !schedule_rejected;
    invalid = !invalid;
    simulated = !simulated;
    injected = !injected;
    escaped = !escaped;
    violations = !violations;
    coverage = cov;
    failures = List.rev !failures;
  }

let summary_to_string s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "fuzz: %d seeds | parsed %d | scheduled %d (rejected %d, invalid %d) \
        | simulated %d | injected %d | escaped %d | violations %d | grammar \
        coverage %.0f%%\n"
       s.runs s.parsed s.scheduled s.schedule_rejected s.invalid s.simulated
       s.injected s.escaped s.violations
       (100.0 *. Gen.Cov.fraction s.coverage));
  (match Gen.Cov.missing s.coverage with
  | [] -> ()
  | m ->
    Buffer.add_string b
      (Printf.sprintf "  uncovered productions: %s\n" (String.concat ", " m)));
  List.iter
    (fun (i, what) -> Buffer.add_string b (Printf.sprintf "  seed %d: %s\n" i what))
    s.failures;
  Buffer.contents b

let ok s = s.violations = 0 && s.escaped = 0

(* The 19-kernel round-trip: emitted source parses back structurally
   equal, and the parsed kernel compiles to the bit-identical mDFG
   content hash in both tuned modes. *)
let round_trip_suite () =
  List.concat_map
    (fun (k : Ir.kernel) ->
      match Frontend.parse (C_source.emit k) with
      | Error e ->
        [ (k.Ir.name, "parse: " ^ Frontend.error_to_string e) ]
      | Ok k' ->
        if k' <> k then [ (k.Ir.name, "structural round-trip mismatch") ]
        else
          List.filter_map
            (fun tuned ->
              let h = Compile.hash_compiled (Compile.compile ~tuned k)
              and h' = Compile.hash_compiled (Compile.compile ~tuned k') in
              if h = h' then None
              else
                Some
                  ( k.Ir.name,
                    Printf.sprintf "compiled hash differs (tuned=%b)" tuned ))
            [ false; true ])
    Kernels.all
