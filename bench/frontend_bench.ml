(* The source frontend under load: parse throughput over the emitted
   suite, the full emit→parse round trip, and the seeded fuzz pipeline
   (generate → emit → parse → compile → schedule → simulate).  Fails if
   the fuzz pipeline finds a violation. *)

open Overgen_workload
module Frontend = Overgen_frontend.Frontend
module Fuzz = Overgen_frontend.Fuzz

let parse_exn src =
  match Frontend.parse src with
  | Ok k -> k
  | Error e -> failwith (Frontend.error_to_string e)

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run () =
  Exp_common.header "Source frontend: parse throughput and fuzz pipeline";
  let sources = List.map C_source.emit Kernels.all in
  let total_lines =
    List.fold_left (fun n s -> n + count_lines s) 0 sources
  in
  (* parse throughput: whole suite, repeated to get a stable wall time *)
  let reps = 5 in
  let (), parse_s =
    time (fun () ->
        for _ = 1 to reps do
          List.iter (fun s -> ignore (parse_exn s)) sources
        done)
  in
  let parses = reps * List.length sources in
  let parse_per_s = float_of_int parses /. parse_s in
  let lines_per_s = float_of_int (reps * total_lines) /. parse_s in
  Printf.printf "  parse: %d kernels x%d in %.3f s (%.0f parses/s, %.0f lines/s)\n"
    (List.length sources) reps parse_s parse_per_s lines_per_s;
  (* full round trip including emission *)
  let (), rt_s =
    time (fun () ->
        for _ = 1 to reps do
          List.iter (fun k -> ignore (parse_exn (C_source.emit k))) Kernels.all
        done)
  in
  let rt_per_s = float_of_int parses /. rt_s in
  Printf.printf "  emit+parse round trip: %.0f kernels/s\n" rt_per_s;
  (* the fuzz pipeline end to end, fault-free *)
  let seeds = 150 in
  let summary, fuzz_s = time (fun () -> Fuzz.run ~seeds ~seed:1 ()) in
  Printf.printf "  fuzz: %s\n" (Fuzz.summary_to_string summary);
  Printf.printf "  fuzz wall: %.2f s (%.1f seeds/s)\n" fuzz_s
    (float_of_int seeds /. fuzz_s);
  if not (Fuzz.ok summary) then failwith "frontend bench: fuzz found violations"
